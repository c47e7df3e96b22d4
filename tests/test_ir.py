"""Parser, validation, and hierarchy-query tests."""

import pytest

from pdcfa import ir
from pdcfa.ir import (
    MethodRef,
    Nop,
    ParseError,
    ResolveError,
    Return,
    parse_program,
    program_to_text,
)

MINI = """
(public class A extends java/lang/Object () ())
"""

HIER = """
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (return 1))
   (method public only_a () int (throws) (limit 1)
     (return 3))))
(public class B extends A ()
  ((method public m () int (throws) (limit 2)
     (assign r (invoke-super m (this) ()))
     (return r))))
"""


def test_nop_parses_inside_body():
    p = parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (nop)
     (return void))))
""")
    body = p.methods[MethodRef("A", "m", ())].body
    assert isinstance(body[0], Nop)


def test_minimal_class():
    p = parse_program(MINI)
    assert list(p.classes) == ["A"]
    assert p.classes["A"].fields == ()
    assert p.classes["A"].methods == ()


def test_self_extends_is_a_cycle():
    with pytest.raises(ParseError, match="cycle"):
        parse_program("(public class A extends A () ())")


def test_two_class_cycle():
    with pytest.raises(ParseError, match="cycle"):
        parse_program("""
(public class A extends B () ())
(public class B extends A () ())
""")


def test_undeclared_superclass():
    with pytest.raises(ParseError, match="undeclared"):
        parse_program("(public class A extends Ghost () ())")


def test_dangling_label():
    with pytest.raises(ParseError, match="dangling"):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (goto nowhere)
     (return void))))
""")


def test_duplicate_label():
    with pytest.raises(ParseError, match="duplicate label"):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (label l)
     (label l)
     (return void))))
""")


def test_duplicate_method_signature():
    with pytest.raises(ParseError, match="duplicate method"):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1) (return void))
   (method public m () void (throws) (limit 1) (return void))))
""")


def test_arity_error_has_location():
    with pytest.raises(ParseError) as exc:
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (goto)
     (return void))))
""")
    assert exc.value.line > 0


def test_unknown_statement_head():
    with pytest.raises(ParseError, match="unknown statement"):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (frobnicate x)
     (return void))))
""")


def test_limit_below_parameter_count():
    with pytest.raises(ParseError, match="limit"):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m (int int) void (throws) (limit 1)
     (return void))))
""")


def test_empty_body_requires_abstract():
    with pytest.raises(ParseError, match="empty body"):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1))))
""")
    p = parse_program("""
(public class A extends java/lang/Object ()
  ((method public abstract m () void (throws) (limit 1))))
""")
    assert p.methods[MethodRef("A", "m", ())].is_abstract


def test_move_from_ret_never_parses():
    with pytest.raises(ParseError):
        parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (move-from-ret x)
     (return void))))
""")


def test_comments_and_positions():
    p = parse_program("""
; leading comment
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (return 1))))  ; trailing
""")
    ret = p.methods[MethodRef("A", "m", ())].body[0]
    assert isinstance(ret, Return)
    assert ret.pos.line == 5


# -- handler regions ----------------------------------------------------------


def test_handler_spans_bracket_nested_and_open_regions():
    p = parse_program("""
(public class java/lang/Exception extends java/lang/Object () ())
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 1)
     (push-handler java/lang/Exception h)
     (push-handler java/lang/Exception h)
     (nop)
     (pop-handler)
     (pop-handler)
     (push-handler java/lang/Exception h)
     (return void)
     (label h)
     (return void))))
""")
    # each push maps to (push, its pop or the body end); each pop to its push
    assert p.handler_spans[MethodRef("A", "m", ())] == {
        0: (0, 4), 4: (0, 4), 1: (1, 3), 3: (1, 3), 5: (5, 9)}


CATCH_INTO_CLOSED_REGION = """
(public class Fault extends java/lang/Object () ())
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (push-handler Fault h)
     (assign e (new Fault))
     (throw e)
     (label h)
     (pop-handler)
     (return 0))))
"""
CATCH_INTO_NESTED_CLOSED_REGION = """
(public class Fault extends java/lang/Object () ())
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (push-handler Fault out)
     (push-handler Fault h)
     (assign e (new Fault))
     (throw e)
     (pop-handler)
     (push-handler Fault out)
     (label h)
     (pop-handler)
     (pop-handler)
     (return 0)
     (label out)
     (return 1))))
"""


@pytest.mark.parametrize("src,line", [(CATCH_INTO_CLOSED_REGION, 5),
                                      (CATCH_INTO_NESTED_CLOSED_REGION, 6)],
                         ids=["region", "nested-region"])
def test_catch_label_inside_a_closed_region_without_its_push_is_rejected(
        src, line):
    """The catch would run the region's pop-handler with no frame of that
    region on the stack. The error points at the push-handler."""
    with pytest.raises(ParseError, match="catch label h enters a closed "
                                         "handler region") as exc:
        parse_program(src)
    assert (exc.value.line, exc.value.col) == (line, 6)


# -- resolution and subtyping -------------------------------------------------


def test_resolve_override_wins():
    p = parse_program(HIER)
    assert p.resolve_method("B", "m", (), "virtual").ref.class_name == "B"


def test_resolve_inherited():
    p = parse_program(HIER)
    assert p.resolve_method("B", "only_a", (), "virtual").ref.class_name == "A"


def test_resolve_super_skips_self():
    p = parse_program(HIER)
    assert p.resolve_method("B", "m", (), "super").ref.class_name == "A"


def test_resolve_missing():
    p = parse_program(HIER)
    with pytest.raises(ResolveError):
        p.resolve_method("B", "ghost", (), "virtual")


def test_is_subclass_reflexive_and_directed():
    p = parse_program(HIER)
    assert p.is_subclass("A", "A")
    assert p.is_subclass("B", "A")
    assert not p.is_subclass("A", "B")


def test_is_subclass_root():
    p = parse_program(HIER)
    assert p.is_subclass("A", "java/lang/Object")
    assert p.is_subclass("B", "java/lang/Object")


def test_is_subclass_unknown_class():
    p = parse_program(HIER)
    with pytest.raises(ir.UnknownClass):
        p.is_subclass("Nope", "A")


def test_is_subclass_partial_order():
    p = parse_program(HIER + """
(public class C extends B () ())
""")
    names = ["A", "B", "C", "java/lang/Object"]
    for x in names:
        assert p.is_subclass(x, x)
        for y in names:
            for z in names:
                if p.is_subclass(x, y) and p.is_subclass(y, z):
                    assert p.is_subclass(x, z)
            if x != y:
                assert not (p.is_subclass(x, y) and p.is_subclass(y, x))


# -- round trip ---------------------------------------------------------------


def test_round_trip_structural_equality():
    from corpus_micro import MICRO_PROGRAMS

    for name, (src, _outcome, _ret) in MICRO_PROGRAMS.items():
        p1 = parse_program(src)
        p2 = parse_program(program_to_text(p1))
        assert p1.classes == p2.classes, f"round trip failed for {name}"


def test_line_of_prefers_line_statements():
    p = parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (line 41)
     (nop)
     (line 99)
     (return 1))))
""")
    m = MethodRef("A", "m", ())
    assert p.line_of(ir.StmtPos(m, 1)) == 41
    assert p.line_of(ir.StmtPos(m, 3)) == 99
