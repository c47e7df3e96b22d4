"""Parser, validation, hierarchy-query and compiled-record tests."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pdcfa import eps, ir
from pdcfa.cli import load_bundle
from pdcfa.ir import (
    MethodRef,
    Nop,
    ParseError,
    ResolveError,
    Return,
    parse_program,
)
from pdcfa.reach import FINITE, PUSHDOWN, AnalysisConfig
from printer import program_to_text

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


# -- compiled records -------------------------------------------------------------


BUNDLES = Path(__file__).parent / "corpus" / "bundles"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _naive_line(body, i) -> int:
    """The most recent (line n) at or before index ``i``, found by scanning
    back; else the statement's source line (0 past the end)."""
    for j in range(min(i, len(body) - 1), -1, -1):
        if isinstance(body[j], ir.Line):
            if body[j].number:
                return body[j].number
            break
    return body[i].pos.line if i < len(body) else 0


def _naive_frame(ref, body, i):
    """The handler frame a push-handler at ``i`` pushes, or the one a
    pop-handler there pops: its push found by scanning back over nested
    regions."""
    st = body[i] if i < len(body) else None
    if isinstance(st, ir.PushHandler):
        return ir.HandlerFrame(st.class_name, st.label, ref)
    if isinstance(st, ir.PopHandler):
        depth = 0
        for j in range(i - 1, -1, -1):
            if isinstance(body[j], ir.PopHandler):
                depth += 1
            elif isinstance(body[j], ir.PushHandler):
                if depth == 0:
                    return ir.HandlerFrame(body[j].class_name, body[j].label,
                                           ref)
                depth -= 1
    return None


def _check_records(program):
    """Every record of ``program`` against a naive reading of its method
    body: statement, successor, branch target, stack dependence, line,
    handler frame and move slot; each label's record is the position after
    the label; and the positions recorded are exactly each body's indexes,
    one past its end, and its move slots."""
    positions = set()
    for ref, mdef in program.methods.items():
        body, n = mdef.body, len(mdef.body)
        labels = {st.name: i + 1 for i, st in enumerate(body)
                  if isinstance(st, ir.Label)}
        assert program.starts[ref] is program.code[ir.StmtPos(ref, 0)]
        for name, i in labels.items():
            assert program.labels[(ref, name)] \
                is program.code[ir.StmtPos(ref, i)]
        for i in range(n + 1):
            pos = ir.StmtPos(ref, i)
            positions.add(pos)
            code = program.code[pos]
            st = body[i] if i < n else None
            assert code.pos == pos and code.stmt is st
            assert code.line == program.line_of(pos) == _naive_line(body, i)
            assert code.dependent == isinstance(
                st, (ir.Return, ir.Throw, ir.PopHandler))
            assert code.frame == _naive_frame(ref, body, i)
            if i < n:
                assert code.next is program.code[ir.StmtPos(ref, i + 1)]
            else:
                assert code.next is None
            if isinstance(st, (ir.Goto, ir.If)):
                assert code.target \
                    is program.code[ir.StmtPos(ref, labels[st.label])]
            else:
                assert code.target is None
            invoke = isinstance(st, ir.AssignComplex) \
                and isinstance(st.exp, ir.Invoke)
            if not invoke:
                assert code.move is None
                continue
            move_pos = ir.StmtPos(ref, i, at_move=True)
            positions.add(move_pos)
            move = program.code[move_pos]
            assert code.move is move and move.pos == move_pos
            assert move.stmt == ir.MoveFromRet(st.name)
            assert move.stmt.pos == st.pos
            assert move.next is code.next
            assert move.line == program.line_of(move_pos) == code.line
            assert not move.dependent
            assert move.target is move.frame is move.move is None
    assert set(program.code) == positions


def test_records_match_the_method_bodies_of_the_shipped_bundles():
    from pdcfa.cli import load_bundle

    names = sorted(p.name for p in BUNDLES.iterdir())
    assert names
    for name in names:
        _check_records(load_bundle(BUNDLES / name).program)


def test_records_match_the_method_bodies_of_the_micro_corpus():
    from corpus_micro import MICRO_PROGRAMS

    for src, _outcome, _ret in MICRO_PROGRAMS.values():
        _check_records(parse_program(src))


@pytest.mark.parametrize("workload", ["wide-pushdown", "finite-witness"])
def test_records_match_the_method_bodies_of_the_synth_bundles(
        tmp_path, monkeypatch, workload):
    from pdcfa.cli import load_bundle

    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))[workload]
    root = synth.generate(synth.Shape.parse(ref["shape"]),
                          ref["seed"]).write(tmp_path / "bundle")
    _check_records(load_bundle(root).program)


def test_records_of_nested_handlers_branches_and_a_body_without_return():
    p = parse_program("""
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit 2)
     (push-handler java/lang/Object outer)
     (line 7)
     (push-handler A inner)
     (assign r (invoke-static A->m () ()))
     (label again)
     (if r (goto again))
     (pop-handler)
     (pop-handler)
     (label inner)
     (label outer)
     (goto inner))))
""")
    _check_records(p)
    m = MethodRef("A", "m", ())
    code = p.code
    assert code[ir.StmtPos(m, 6)].frame == ir.HandlerFrame("A", "inner", m)
    assert code[ir.StmtPos(m, 7)].frame \
        == ir.HandlerFrame("java/lang/Object", "outer", m)
    assert code[ir.StmtPos(m, 5)].target is code[ir.StmtPos(m, 5)]
    assert code[ir.StmtPos(m, 10)].target is code[ir.StmtPos(m, 9)]
    assert code[ir.StmtPos(m, 3)].move.line == 7
    end = code[ir.StmtPos(m, 11)]
    assert end.stmt is None and end.next is None and end.line == 7


# -- the reader against the character-at-a-time reader it replaced -----------


def _reference_read_sexprs(text: str) -> list:
    """The S-expression reader as it was before the one-regex tokenizer,
    kept as the reference the tokenizer must match."""
    exprs = []
    stack: list[list] = []
    positions: list[tuple] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "(":
            stack.append([])
            positions.append((line, col))
            col += 1
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            items = stack.pop()
            lpos = positions.pop()
            node = ir._SList(tuple(items), lpos[0], lpos[1])
            if stack:
                stack[-1].append(node)
            else:
                exprs.append(node)
            col += 1
            i += 1
            continue
        start_line, start_col = line, col
        j = i
        while j < n and not text[j].isspace() and text[j] not in "();":
            j += 1
        atom = ir._Atom(text[i:j], start_line, start_col)
        if stack:
            stack[-1].append(atom)
        else:
            exprs.append(atom)
        col += j - i
        i = j
    if stack:
        lpos = positions[-1]
        raise ParseError("unclosed '('", lpos[0], lpos[1])
    return exprs


def _tree(node):
    if isinstance(node, ir._Atom):
        return (node.text, node.line, node.col)
    assert isinstance(node, ir._SList)
    return (tuple(_tree(item) for item in node.items), node.line, node.col)


def _read_both(text: str) -> tuple:
    """Each reader's trees (text or items, line, col at every node), or its
    ParseError (message, line, col)."""
    out = []
    for read in (ir._read_sexprs, _reference_read_sexprs):
        try:
            out.append([_tree(node) for node in read(text)])
        except ParseError as exc:
            out.append((exc.message, exc.line, exc.col))
    return tuple(out)


@pytest.mark.parametrize("path", sorted(BUNDLES.glob("*/*.sdex")),
                         ids=lambda p: p.parent.name)
def test_reader_matches_the_reference_on_shipped_programs(path):
    text = path.read_text(encoding="utf-8")
    new, old = _read_both(text)
    assert new == old and isinstance(new, list) and new


@pytest.mark.parametrize("workload", ["wide-pushdown", "finite-witness"])
def test_reader_matches_the_reference_on_synth_programs(
        tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))[workload]
    assert ref["shape"] in ("6x8x3x2", "2x4x3x2")
    app = synth.generate(synth.Shape.parse(ref["shape"]), ref["seed"])
    root = app.write(tmp_path / "bundle")
    program = json.loads((root / "manifest.json").read_text())["program"]
    new, old = _read_both((root / program).read_text(encoding="utf-8"))
    assert new == old and isinstance(new, list) and new


# every character the readers treat apart: parens, comments, line ends,
# other whitespace (a line break to str.splitlines but not to the reader),
# and atom characters
_READER_ALPHABET = "();\n\r\t \x0b\x0c\x1c\x85 　ab0-/>$_é"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text(alphabet=_READER_ALPHABET, max_size=80))
@example("(a (b\r c)\t; d)\n e)\x85(f")
@example("(a\n  (b ; (\n c　d))) ")
@example("  (\n(a) ; x\n")
def test_reader_matches_the_reference_on_generated_text(text):
    new, old = _read_both(text)
    assert new == old


# -- located errors: definitions, limits, and mutated shipped programs --------

# one program per definition-level error: its message, and the line:col of
# the "(class", "(field" or "(method" it names
DEFINITION_ERRORS = {
    "undeclared superclass": (
        "(public class A extends Ghost () ())",
        "class A extends undeclared Ghost", (1, 1)),
    "hierarchy cycle": (
        "(public class A extends java/lang/Object () ())\n"
        "  (public class B extends C () ())\n"
        "(public class C extends B () ())",
        "hierarchy cycle through B", (2, 3)),
    "duplicate class": (
        "(public class A extends java/lang/Object () ())\n"
        " (public class A extends java/lang/Object () ())",
        "duplicate class A", (2, 2)),
    "duplicate field": (
        "(public class A extends java/lang/Object\n"
        "  ((field public x int)\n"
        "   (field public x int))\n"
        "  ())",
        "duplicate field A.x", (3, 4)),
    "field type": (
        "(public class A extends java/lang/Object\n"
        "  ((field public x Ghost))\n"
        "  ())",
        "field A.x has undeclared type Ghost", (2, 4)),
    "duplicate method": (
        "(public class A extends java/lang/Object ()\n"
        "  ((method public m () void (throws) (limit 1) (return void))\n"
        "   (method public m () void (throws) (limit 1) (return void))))",
        "duplicate method A.m()", (3, 4)),
    "parameter type": (
        "(public class A extends java/lang/Object ()\n"
        "  ((method public m (Ghost) void (throws) (limit 1) (return void))))",
        "method A.m has undeclared parameter type Ghost", (2, 4)),
    "return type": (
        "(public class A extends java/lang/Object ()\n"
        "  ((method public m () Ghost (throws) (limit 1) (return null))))",
        "method A.m has undeclared return type Ghost", (2, 4)),
    "empty body": (
        "(public class A extends java/lang/Object ()\n"
        "  ((method public m () void (throws) (limit 1))))",
        "non-abstract method A.m has an empty body", (2, 4)),
    "limit below the parameter count": (
        "(public class A extends java/lang/Object ()\n"
        "  ((method public m (int int) void (throws) (limit 1)\n"
        "     (return void))))",
        "method A.m limit below its parameter count", (2, 4)),
}


@pytest.mark.parametrize("error", DEFINITION_ERRORS)
def test_a_definition_error_names_its_definition(error):
    text, message, at = DEFINITION_ERRORS[error]
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.message, (exc.value.line, exc.value.col)) == (message,
                                                                    at)
    assert str(exc.value) == f"{message} at {at[0]}:{at[1]}"


def test_definitions_keep_their_positions():
    p = parse_program(DEFINITION_ERRORS["duplicate field"][0].replace(
        "(field public x int))", "(field public y int))"))
    cdef = p.classes["A"]
    assert cdef.pos == ir.SrcPos(1, 1)
    assert [f.pos for f in cdef.fields] == [ir.SrcPos(2, 4), ir.SrcPos(3, 4)]
    m = parse_program(HIER).classes["B"].methods[0]
    assert m.pos == ir.SrcPos(8, 4)


LIMIT_PROGRAM = """
(public class A extends java/lang/Object ()
  ((method public m () void (throws) (limit {})
     (return void))))
"""


@pytest.mark.parametrize("limit", ["abc", "1.5", "1_0"])
def test_a_limit_that_is_no_integer_is_a_located_error(limit):
    """``int()`` would raise ValueError for the first two and read the
    third as 10."""
    with pytest.raises(ParseError) as exc:
        parse_program(LIMIT_PROGRAM.format(limit))
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        f"malformed limit {limit!r}", 3, 45)


def test_a_method_without_its_limit_is_a_located_error():
    with pytest.raises(ParseError) as exc:
        parse_program("(public class A extends java/lang/Object ()\n"
                      "  ((method public m () void (throws))))")
    assert (exc.value.message, exc.value.line, exc.value.col) == (
        "method needs name, params, return type, throws, limit", 2, 4)


# what an atom of a shipped program is replaced with: a name, numbers int()
# reads differently, a list, reserved words, a class and a register-like atom
_FUZZ_TOKENS = ("abc", "1.5", "1_0", "-1", "0", "()", "this", "null", "void",
                "java/lang/Object", "$x")


def _atom_spans(text: str) -> list:
    """(offset, length) of every atom the reader finds in ``text``."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    spans, todo = [], ir._read_sexprs(text)
    while todo:
        node = todo.pop()
        if isinstance(node, ir._Atom):
            spans.append((starts[node.line - 1] + node.col - 1,
                          len(node.text)))
        else:
            todo.extend(node.items)
    return sorted(spans)


# (program text, its atoms' spans, its bundle) of each shipped bundle
SHIPPED_PROGRAMS = [(text, _atom_spans(text), load_bundle(path.parent))
                    for path in sorted(BUNDLES.glob("*/*.sdex"))
                    for text in [path.read_text(encoding="utf-8")]]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.sampled_from(SHIPPED_PROGRAMS), st.integers(0, 10**6),
       st.sampled_from(_FUZZ_TOKENS))
def test_a_mutated_shipped_program_parses_or_fails_with_a_location(
        program, which, token):
    """One atom of a shipped program replaced: the parser accepts it or
    raises ParseError at a line, never another exception. A mutant that
    parses and still declares its bundle's entry points saturates under
    both engines (k=1, a few states, the bundle's summaries) without an
    exception: no parsed program steps a state the engines rule out, such
    as a pop-handler over a call frame."""
    text, spans, bundle = program
    start, length = spans[which % len(spans)]
    try:
        mutant = parse_program(text[:start] + token + text[start + length:])
    except ParseError as exc:
        assert exc.line > 0, str(exc)
        return
    try:
        units = eps.discover_entry_points(bundle, mutant)
    except eps.UnknownMethod:
        return
    for mode in (PUSHDOWN, FINITE):
        eps.saturate_app(mutant, units,
                         AnalysisConfig(mode=mode, k=1, max_states=2_000),
                         bundle.summaries)
