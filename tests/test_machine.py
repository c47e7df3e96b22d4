"""Abstract-domain and transition-rule tests."""

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdcfa import eps, machine, reach
from pdcfa.cli import load_bundle
from pdcfa.concrete import (
    CBool,
    CInt,
    ConcreteError,
    CRegAddr,
    _apply_op,
    run_concrete,
)
from pdcfa.ir import (
    BINARY_OPS,
    AtomicOp,
    InstanceOf,
    IntLit,
    MethodRef,
    Name,
    NullLit,
    StmtPos,
    parse_program,
)
from pdcfa.machine import (
    ANY_INT,
    ANY_STRING,
    AbstractBool,
    AmbientSite,
    AbstractInt,
    AbstractString,
    AllocPolicy,
    FALSE,
    FieldAddr,
    FramePointer,
    FunFrame,
    HandlerFrame,
    INT_CONSTANT_BUDGET,
    NULL,
    ObjectPointer,
    ObjectValue,
    POP,
    PUSH,
    RegAddr,
    Store,
    TRUE,
    VOID,
    _pair_op,
    alloc_fp,
    alloc_op,
    field_values,
    frame_pointer_zero,
    normalize_vals,
    seed_entry_bindings,
    step_dependent,
)
from pdcfa.reach import AnalysisConfig, ControlState, Edge
from pdcfa.taint import SummaryTable, TaintStore, TaintVal, parse_summaries
from stores import canonical_text, eval_atomic, join_store
from views import views

EMPTY = SummaryTable([])

HIER = """
(public class A extends java/lang/Object () ())
(public class B extends A () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (return 1))))
"""


def fp(name="Main", method="run"):
    return frame_pointer_zero(MethodRef(name, method, ()))


def test_eval_literal():
    p = parse_program(HIER)
    assert eval_atomic(p, IntLit(42), fp(), Store()) == {AbstractInt(42)}


def test_eval_add_matches_concrete_oracle():
    # oracle value computed by the concrete interpreter on the same program
    src = """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign a 2)
     (assign b 3)
     (return (add a b)))))
"""
    p = parse_program(src)
    entry = MethodRef("Main", "run", ())
    crun = run_concrete(p, entry, fuel=50)
    oracle = crun.final_store()[CRegAddr(0, "ret")].value
    store = Store()
    f = frame_pointer_zero(entry)
    store.join(RegAddr(f, "a"), {AbstractInt(2)})
    store.join(RegAddr(f, "b"), {AbstractInt(3)})
    got = eval_atomic(p, AtomicOp("add", (Name("a"), Name("b"))), f, store)
    assert got == {AbstractInt(oracle)} == {AbstractInt(5)}


def test_eval_any_int_widens():
    p = parse_program(HIER)
    store = Store()
    f = fp()
    store.join(RegAddr(f, "a"), {ANY_INT})
    store.join(RegAddr(f, "b"), {AbstractInt(3)})
    assert eval_atomic(p, AtomicOp("add", (Name("a"), Name("b"))), f, store) \
        == {ANY_INT}
    assert eval_atomic(p, AtomicOp("lt", (Name("a"), Name("b"))), f, store) \
        == {TRUE, FALSE}


# Each binary op over a grid of operand pairs: exact ints, Any (?), zero
# divisors, equal ints, bools and an int with a bool. A cell is the result
# set: an int, ? for Any, T and F for the bools, TF for both, - for none.
BINARY_OP_PAIRS = ((7, 2), (7, -2), (7, 0), (7, "?"), (-7, 2), (-7, -2),
                   (-7, 0), (-7, "?"), ("?", 2), ("?", 0), ("?", "?"),
                   (2, 2), (True, True), (True, False), (False, True),
                   (False, False), (7, True))
BINARY_OP_TABLE = """
add   9   5   7  ?  -5  -9  -7  ?  ?  ?  ?  4  -  -  -  -  -
sub   5   9   7  ?  -9  -5  -7  ?  ?  ?  ?  0  -  -  -  -  -
mul  14 -14   0  ? -14  14   0  ?  ?  ?  ?  4  -  -  -  -  -
div   3  -3   -  ?  -3   3   -  ?  ?  ?  ?  1  -  -  -  -  -
rem   1   1   -  ?  -1  -1   -  ?  ?  ?  ?  0  -  -  -  -  -
and   2   6   0  ?   0  -8   0  ?  ?  ?  ?  2  T  F  F  F  -
or    7  -1   7  ?  -5  -1  -7  ?  ?  ?  ?  2  T  T  T  F  -
xor   5  -7   7  ?  -5   7  -7  ?  ?  ?  ?  0  F  T  T  F  -
lt    F   F   F TF   T   T   T TF TF TF TF  F  -  -  -  -  -
le    F   F   F TF   T   T   T TF TF TF TF  T  -  -  -  -  -
gt    T   T   T TF   F   F   F TF TF TF TF  F  -  -  -  -  -
ge    T   T   T TF   F   F   F TF TF TF TF  T  -  -  -  -  -
eq    F   F   F TF   F   F   F TF TF TF TF  T  T  F  F  T  F
ne    T   T   T TF   T   T   T TF TF TF TF  F  F  T  T  F  T
"""


def _abstract_operand(v):
    if v == "?":
        return ANY_INT
    return AbstractBool(v) if isinstance(v, bool) else AbstractInt(v)


def _abstract_cell(cell) -> frozenset:
    named = {"?": {ANY_INT}, "T": {TRUE}, "F": {FALSE}, "TF": {TRUE, FALSE},
             "-": set()}
    if cell in named:
        return frozenset(named[cell])
    return frozenset({AbstractInt(int(cell))})


def test_binary_ops_match_the_written_table():
    rows = [line.split() for line in BINARY_OP_TABLE.strip().splitlines()]
    assert {row[0] for row in rows} == BINARY_OPS
    for op, *cells in rows:
        assert len(cells) == len(BINARY_OP_PAIRS), op
        for (a, b), cell in zip(BINARY_OP_PAIRS, cells):
            got = _pair_op(op, _abstract_operand(a), _abstract_operand(b))
            assert got == _abstract_cell(cell), (op, a, b)
            assert all(type(v.value) is type(w.value) for v in got
                       for w in _abstract_cell(cell)), (op, a, b)



def test_concrete_binary_ops_match_the_written_table():
    """The concrete interpreter agrees on every cell with exact operands;
    an empty cell is an ill-typed operation or a zero divisor there."""
    rows = [line.split() for line in BINARY_OP_TABLE.strip().splitlines()]
    for op, *cells in rows:
        for (a, b), cell in zip(BINARY_OP_PAIRS, cells):
            if "?" in (a, b):
                continue
            args = [CBool(v) if isinstance(v, bool) else CInt(v)
                    for v in (a, b)]
            if cell == "-":
                with pytest.raises(ConcreteError):
                    _apply_op(op, args)
                continue
            got = _apply_op(op, args)
            wrap = AbstractBool if isinstance(got, CBool) else AbstractInt
            assert {wrap(got.value)} == _abstract_cell(cell), (op, a, b)
            assert type(got.value) is (bool if cell in "TF" else int)

def test_eval_unbound_register_is_empty():
    p = parse_program(HIER)
    assert eval_atomic(p, Name("ghost"), fp(), Store()) == frozenset()


def test_eval_instance_of_subclass():
    p = parse_program(HIER)
    store = Store()
    f = fp()
    op = ObjectPointer(StmtPos(MethodRef("Main", "run", ()), 0))
    store.join(RegAddr(f, "o"), {ObjectValue(op, "B")})
    assert eval_atomic(p, InstanceOf(Name("o"), "A"), f, store) == {TRUE}
    assert eval_atomic(p, InstanceOf(NullLit(), "A"), f, store) == {FALSE}


def test_eval_instance_of_mixed_is_both():
    p = parse_program(HIER)
    store = Store()
    f = fp()
    op1 = ObjectPointer(StmtPos(MethodRef("Main", "run", ()), 0))
    op2 = ObjectPointer(StmtPos(MethodRef("Main", "run", ()), 1))
    store.join(RegAddr(f, "o"), {ObjectValue(op1, "B"), ObjectValue(op2, "A")})
    # B <= A holds, A <= B does not
    assert eval_atomic(p, InstanceOf(Name("o"), "B"), f, store) == {TRUE, FALSE}


def eval_field(program, ae_o, fp, store, field_name) -> frozenset:
    """Join of the field's values over every object the receiver may be."""
    return field_values(program, eval_atomic(program, ae_o, fp, store),
                        store, field_name)


def test_eval_field_joins_over_receivers():
    p = parse_program(HIER)
    store = Store()
    f = fp()
    m = MethodRef("Main", "run", ())
    op1, op2 = ObjectPointer(StmtPos(m, 0)), ObjectPointer(StmtPos(m, 1))
    store.join(RegAddr(f, "o"), {ObjectValue(op1, "A"), ObjectValue(op2, "A")})
    store.join(FieldAddr(op1, "f"), {AbstractInt(1)})
    store.join(FieldAddr(op2, "f"), {AbstractInt(2)})
    assert eval_field(p, Name("o"), f, store, "f") \
        == {AbstractInt(1), AbstractInt(2)}


def test_eval_field_single_receiver():
    p = parse_program(HIER)
    store = Store()
    f = fp()
    op = ObjectPointer(StmtPos(MethodRef("Main", "run", ()), 0))
    store.join(RegAddr(f, "o"), {ObjectValue(op, "A")})
    store.join(FieldAddr(op, "f"), {AbstractInt(1)})
    assert eval_field(p, Name("o"), f, store, "f") == {AbstractInt(1)}


def test_eval_field_null_receiver_is_stuck():
    p = parse_program(HIER)
    store = Store()
    f = fp()
    store.join(RegAddr(f, "o"), {NULL})
    assert eval_field(p, Name("o"), f, store, "f") == frozenset()


# -- allocation policies --------------------------------------------------------


def test_alloc_fp_k0_collapses():
    m = MethodRef("M", "f", ())
    s1 = StmtPos(MethodRef("M", "run", ()), 1)
    s2 = StmtPos(MethodRef("M", "run", ()), 2)
    pol = AllocPolicy(k=0)
    assert alloc_fp(fp(), s1, m, pol) == alloc_fp(fp(), s2, m, pol)


def test_alloc_fp_k1_splits_sites():
    m = MethodRef("M", "f", ())
    s1 = StmtPos(MethodRef("M", "run", ()), 1)
    s2 = StmtPos(MethodRef("M", "run", ()), 2)
    pol = AllocPolicy(k=1)
    fp1 = alloc_fp(fp(), s1, m, pol)
    fp2 = alloc_fp(fp(), s2, m, pol)
    assert fp1 != fp2
    assert fp1.context == (s1,)


def test_alloc_fp_k1_keeps_last_site_only():
    m = MethodRef("M", "g", ())
    s1 = StmtPos(MethodRef("M", "run", ()), 1)
    s2 = StmtPos(MethodRef("M", "f", ()), 0)
    pol = AllocPolicy(k=1)
    inner = alloc_fp(FramePointer(MethodRef("M", "f", ()), (s1,)), s2, m, pol)
    assert inner.context == (s2,)


def test_alloc_op_distinct_sites():
    m = MethodRef("M", "run", ())
    pol = AllocPolicy()
    assert alloc_op(StmtPos(m, 0), fp(), pol) != alloc_op(StmtPos(m, 1), fp(), pol)


def test_alloc_op_heap_context():
    m = MethodRef("M", "run", ())
    site = StmtPos(m, 0)
    caller = FramePointer(MethodRef("M", "f", ()), (StmtPos(m, 3),))
    assert alloc_op(site, caller, AllocPolicy(heap_context=False)).context == ()
    assert alloc_op(site, caller, AllocPolicy(heap_context=True)).context \
        == (StmtPos(m, 3),)


# -- stack-dependent stepping -------------------------------------------------


THROWY = """
(public class java/lang/Throwable extends java/lang/Object () ())
(public class java/lang/Exception extends java/lang/Throwable () ())
(public class Fault extends java/lang/Exception () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 4)
     (assign e (new Fault))
     (throw e)
     (label h)
     (return 9))
   (method public give () int (throws) (limit 1)
     (return 5))))
"""


def _step(p, pos, f, top, store=None):
    """step_dependent with ``top`` on the stack, in fresh stores unless
    ``store`` is given; returns the successor edges."""
    return step_dependent(p, ControlState(pos, f), top, store or Store(),
                          TaintStore(), AllocPolicy())


def test_step_return_under_handler_pops_and_retries():
    p = parse_program(THROWY)
    give = MethodRef("Main", "give", ())
    h = HandlerFrame("Fault", "h", MethodRef("Main", "run", ()))
    pos = StmtPos(give, 0)
    (succ,) = _step(p, pos, frame_pointer_zero(give), h)
    assert succ.dst.pos == pos  # same return statement
    assert succ.kind == POP and succ.frame == h


def test_step_throw_matching_handler_by_subclass():
    p = parse_program(THROWY)
    run = MethodRef("Main", "run", ())
    store = Store()
    f = frame_pointer_zero(run)
    op = ObjectPointer(StmtPos(run, 0))
    store.join(RegAddr(f, "e"), {ObjectValue(op, "Fault")})
    h = HandlerFrame("java/lang/Exception", "h", run)
    (succ,) = _step(p, StmtPos(run, 1), f, h, store)
    assert succ.dst.pos == p.labels[(run, "h")].pos
    assert succ.kind == POP and succ.frame == h
    assert store.lookup(RegAddr(f, "exn")) == {ObjectValue(op, "Fault")}


def test_step_throw_two_frame_unwind_matches_oracle():
    # concrete oracle on the same corpus program pops a call frame, then a
    # matching handler frame
    from corpus_micro import MICRO_PROGRAMS, RUN

    src, _, expected = MICRO_PROGRAMS["try_catch_interproc"]
    p = parse_program(src)
    crun = run_concrete(p, RUN, fuel=200)
    assert crun.outcome == "completed"
    # the handler return runs under the thrower's frame (frame 1)
    assert crun.final_store()[CRegAddr(1, "ret")].value == expected

    run = MethodRef("Main", "run", ())
    boom = MethodRef("Main", "boom", ())
    store = Store()
    f_boom = FramePointer(boom, (StmtPos(run, 1),))
    op = ObjectPointer(StmtPos(boom, 0))
    store.join(RegAddr(f_boom, "e"), {ObjectValue(op, "Fault")})
    fun = FunFrame(frame_pointer_zero(run), StmtPos(run, 1, at_move=True))
    handler = HandlerFrame("java/lang/Exception", "catch", run)
    # the stack is (fun, handler), fun on top
    pos = StmtPos(boom, 1)
    (after_fun,) = _step(p, pos, f_boom, fun, store)
    assert after_fun.dst.pos == pos
    assert after_fun.kind == POP and after_fun.frame == fun
    (after_handler,) = _step(p, after_fun.dst.pos, after_fun.dst.fp, handler,
                             store)
    assert after_handler.dst.pos == p.labels[(run, "catch")].pos
    assert after_handler.kind == POP and after_handler.frame == handler


def test_step_uncatchable_class_keeps_unwinding():
    p = parse_program(THROWY + """
(public class Unrelated extends java/lang/Object () ())
""")
    run = MethodRef("Main", "run", ())
    store = Store()
    f = frame_pointer_zero(run)
    op = ObjectPointer(StmtPos(run, 0))
    store.join(RegAddr(f, "e"), {ObjectValue(op, "Fault")})
    h = HandlerFrame("Unrelated", "h", run)
    pos = StmtPos(run, 1)
    (succ,) = _step(p, pos, f, h, store)
    assert succ.dst.pos == pos  # still throwing
    assert succ.kind == POP and succ.frame == h


def test_step_pop_handler_over_fun_frame_is_malformed():
    """The validator pairs each pop-handler with its push, so no parsed
    program steps one over a call frame or an empty stack: a state built
    by hand that does is an internal defect, an AssertionError."""
    p = parse_program("""
(public class java/lang/Exception extends java/lang/Object () ())
(public class Main extends java/lang/Object ()
  ((method public run () void (throws) (limit 1)
     (push-handler java/lang/Exception h)
     (pop-handler)
     (return void)
     (label h)
     (return void))))
""")
    run = MethodRef("Main", "run", ())
    fun = FunFrame(frame_pointer_zero(run), StmtPos(run, 0, at_move=True))
    pos = StmtPos(run, 1)
    with pytest.raises(AssertionError, match="pop-handler over "):
        _step(p, pos, frame_pointer_zero(run), fun)
    with pytest.raises(AssertionError, match="over an empty stack"):
        _step(p, pos, frame_pointer_zero(run), None)


def test_seed_entry_bindings_shares_per_class_receiver():
    p = parse_program("""
(public class U extends java/lang/Object
  ((field public data int))
  ((method public a () void (throws) (limit 1) (return void))
   (method public b () void (throws) (limit 1) (return void))))
""")
    store, taint = Store(), TaintStore()
    fa = seed_entry_bindings(p, MethodRef("U", "a", ()), store, taint)
    fb = seed_entry_bindings(p, MethodRef("U", "b", ()), store, taint)
    (ra,) = store.lookup(RegAddr(fa, "this"))
    (rb,) = store.lookup(RegAddr(fb, "this"))
    assert ra.op == rb.op  # one ambient instance per class


# -- lattice properties ---------------------------------------------------------


_VALUES = st.one_of(
    st.integers(-5, 12).map(AbstractInt),
    st.just(ANY_INT),
    st.just(ANY_STRING),
    st.sampled_from(["a", "bb", "ccc"]).map(AbstractString),
    st.booleans().map(AbstractBool),
    st.just(NULL),
    st.just(VOID),
)

_METHODS = [MethodRef("M", "f", ()), MethodRef("M", "g", ())]
_ADDRS = st.one_of(
    st.tuples(st.sampled_from(_METHODS), st.sampled_from(["a", "b", "ret"]))
    .map(lambda t: RegAddr(frame_pointer_zero(t[0]), t[1])),
    st.tuples(st.sampled_from(_METHODS), st.integers(0, 2),
              st.sampled_from(["f", "g"]))
    .map(lambda t: FieldAddr(ObjectPointer(StmtPos(t[0], t[1])), t[2])),
)

_STORE_CONTENT = st.dictionaries(
    _ADDRS, st.frozensets(_VALUES, min_size=1, max_size=6), max_size=6)


def _mk_store(content) -> Store:
    s = Store()
    for addr, vals in content.items():
        s.join(addr, vals)
    return s


def _joined(a: Store, b: Store) -> str:
    out = a.copy()
    join_store(out, b)
    return canonical_text(out)


@settings(max_examples=150, deadline=None)
@given(_STORE_CONTENT, _STORE_CONTENT)
def test_store_join_commutative(ca, cb):
    a, b = _mk_store(ca), _mk_store(cb)
    assert _joined(a, b) == _joined(b, a)


@settings(max_examples=150, deadline=None)
@given(_STORE_CONTENT, _STORE_CONTENT, _STORE_CONTENT)
def test_store_join_associative(ca, cb, cc):
    a, b, c = _mk_store(ca), _mk_store(cb), _mk_store(cc)
    left = a.copy()
    join_store(left, b)
    join_store(left, c)
    bc = b.copy()
    join_store(bc, c)
    right = a.copy()
    join_store(right, bc)
    assert canonical_text(left) == canonical_text(right)


@settings(max_examples=150, deadline=None)
@given(_STORE_CONTENT)
def test_store_join_idempotent(ca):
    a = _mk_store(ca)
    again = a.copy()
    assert not join_store(again, a)
    assert canonical_text(again) == canonical_text(a)


def test_int_budget_absorbs_constants():
    assert INT_CONSTANT_BUDGET == 8
    vals = {AbstractInt(i) for i in range(9)}
    out = normalize_vals(vals)
    assert out == {ANY_INT}
    kept = normalize_vals({AbstractInt(i) for i in range(8)})
    assert kept == {AbstractInt(i) for i in range(8)}
    assert normalize_vals({ANY_INT, AbstractInt(1)}) == {ANY_INT}
    assert normalize_vals({ANY_STRING, AbstractString("x")}) == {ANY_STRING}


@settings(max_examples=100, deadline=None)
@given(st.frozensets(st.sampled_from(
    ["Location", "Sms", "Network", "DeviceID"]), max_size=4),
    st.frozensets(st.sampled_from(
        ["Location", "Sms", "Network", "DeviceID"]), max_size=4))
def test_taint_join_laws(a, b):
    from pdcfa.taint import TaintVal

    ta = frozenset(TaintVal(x) for x in a)
    tb = frozenset(TaintVal(x) for x in b)
    s1, s2 = TaintStore(), TaintStore()
    addr = RegAddr(fp(), "r")
    s1.join(addr, ta)
    s1.join(addr, tb)
    s2.join(addr, tb)
    s2.join(addr, ta)
    assert canonical_text(s1) == canonical_text(s2)
    assert not s1.join(addr, ta)  # idempotent


@settings(max_examples=150, deadline=None)
@given(st.frozensets(_VALUES, max_size=12))
def test_normalize_vals_is_idempotent(vals):
    once = normalize_vals(vals)
    assert normalize_vals(once) == once


@settings(max_examples=150, deadline=None)
@given(_STORE_CONTENT, st.randoms(use_true_random=False))
def test_join_of_a_subset_returns_false_without_on_grow(content, rnd):
    store = _mk_store(content)
    before = canonical_text(store)
    grown = []
    store.on_grow = grown.append
    for addr, vals in store.items():
        subset = frozenset(v for v in vals if rnd.random() < 0.5)
        assert not store.join(addr, subset)
    assert grown == []
    assert canonical_text(store) == before


@settings(max_examples=150, deadline=None)
@given(_STORE_CONTENT, _STORE_CONTENT, _STORE_CONTENT)
def test_fingerprint_changes_exactly_when_a_copy_chain_grows(ca, cb, cc):
    first = _mk_store(ca)
    second = first.copy()
    join_store(second, _mk_store(cb))
    third = second.copy()
    join_store(third, _mk_store(cc))
    for old, new in ((first, second), (second, third), (first, third)):
        assert (new.fingerprint() == old.fingerprint()) == \
            (canonical_text(new) == canonical_text(old))


def test_taint_join_of_a_subset_returns_false_without_on_grow():
    store, addr = TaintStore(), RegAddr(fp(), "r")
    assert store.join(addr, {TaintVal.LOCATION, TaintVal.SMS})
    grown = []
    store.on_grow = grown.append
    assert not store.join(addr, {TaintVal.SMS})
    assert not store.join(addr, set())
    assert grown == []


# -- key types --------------------------------------------------------------------


KEY_TYPES = (MethodRef, StmtPos, FramePointer, AmbientSite, ObjectPointer,
             RegAddr, FieldAddr, ObjectValue, FunFrame, HandlerFrame,
             ControlState, Edge)


def _keys(cls="app/A"):
    """One instance of every key type, each nested part built afresh."""
    m = MethodRef(cls, "run", ("int",))
    pos = StmtPos(m, 3)
    fp1 = FramePointer(m, (StmtPos(m, 1),))
    amb = AmbientSite(cls)
    op = ObjectPointer(StmtPos(m, 2), (StmtPos(m, 1),))
    frame = FunFrame(fp1, StmtPos(m, 4, at_move=True))
    state = ControlState(pos, fp1)
    return [m, pos, fp1, amb, op, RegAddr(fp1, "x"), FieldAddr(op, "f"),
            ObjectValue(op, cls), frame,
            HandlerFrame("java/lang/Exception", "L", m), state,
            Edge(state, PUSH, frame, ControlState(StmtPos(m, 0), fp1))]


def test_key_types_equal_and_hash_alike_when_built_apart():
    a, b = _keys(), _keys()
    assert [type(x) for x in a] == list(KEY_TYPES)
    for x, y in zip(a, b):
        assert x is not y
        assert x == y and hash(x) == hash(y), type(x).__name__
    assert len(set(a) | set(b)) == len(KEY_TYPES)


def _moved(x, other, name):
    """A copy of the key ``x`` built positionally, with ``other``'s value
    of the field ``name``."""
    return type(x)(*(getattr(other if n == name else x, n)
                     for n in x.__match_args__))


def test_replace_hashes_like_a_fresh_build():
    for x, other in zip(_keys("app/A"), _keys("app/B")):
        args = {name: getattr(x, name) for name in x.__match_args__}
        for name in args:
            changes = {name: getattr(other, name)}
            moved = _moved(x, other, name)
            fresh = type(x)(**(args | changes))
            assert moved == fresh, (type(x).__name__, name)
            assert hash(moved) == hash(fresh), (type(x).__name__, name)


def test_key_types_are_slotted():
    for x in _keys():
        assert not hasattr(x, "__dict__"), type(x).__name__
        assert "_hash" in type(x).__slots__


def _naive_sort_key(x):
    """The sort key of ``x`` rebuilt from its fields, with no cache."""
    def ctx(context):
        return tuple(_naive_sort_key(s) for s in context)

    match x:
        case MethodRef():
            return (x.class_name, x.method_name, x.param_types)
        case StmtPos():
            return (*_naive_sort_key(x.method), x.index, int(x.at_move))
        case FramePointer():
            return (_naive_sort_key(x.method), ctx(x.context))
        case AmbientSite():
            return ("<ambient>", x.class_name, -1)
        case ObjectPointer():
            site = _naive_sort_key(x.site)
            if not isinstance(x.site, AmbientSite):
                site = ("stmt", *site)
            return (site, ctx(x.context))
        case RegAddr():
            return (0, _naive_sort_key(x.fp), x.reg)
        case FieldAddr():
            return (1, _naive_sort_key(x.op), x.field_name)
        case ObjectValue():
            return (4, x.class_name, _naive_sort_key(x.op))
        case FunFrame():
            return (0, _naive_sort_key(x.fp), _naive_sort_key(x.ret_pos))
        case HandlerFrame():
            return (1, x.class_name, x.label, _naive_sort_key(x.owner))
        case ControlState():
            return (_naive_sort_key(x.pos), _naive_sort_key(x.fp))
        case Edge():
            frame = _naive_sort_key(x.frame) if x.frame is not None else ()
            return (_naive_sort_key(x.src), x.kind, frame,
                    _naive_sort_key(x.dst))
    raise AssertionError(type(x).__name__)


def _key_instances(res):
    """Every key-type instance a result holds: states, edges and their
    frames, store addresses and object values."""
    yield from res.dsg.nodes
    for e in res.dsg.edges:
        yield e
        if e.frame is not None:
            yield e.frame
    for addr, vals in res.final_store.items():
        yield addr
        yield from (v for v in vals if isinstance(v, ObjectValue))


def test_cached_sort_key_equals_the_uncached_tuple(bundles_dir):
    for x in _keys():
        key = x.sort_key()
        assert key == _naive_sort_key(x), type(x).__name__
        assert key == type(x).sort_key.__wrapped__(x)
        assert x.sort_key() is key  # built once, then reused
    seen = set()
    bundle = load_bundle(bundles_dir / "photoquote_exception")
    for mode in ("pushdown", "finite"):
        units = eps.discover_entry_points(bundle, bundle.program)
        _s, _t, trace = eps.saturate_app(
            bundle.program, units, AnalysisConfig(mode=mode, k=1),
            bundle.summaries)
        for res in [trace.fixpoint, *views(trace)]:
            for x in _key_instances(res):
                assert x.sort_key() == _naive_sort_key(x), repr(x)
                seen.add(type(x))
    assert seen >= {ControlState, Edge, FunFrame, HandlerFrame, RegAddr,
                    FieldAddr, ObjectValue}


def test_replace_copy_builds_its_own_sort_key():
    for x, other in zip(_keys("app/A"), _keys("app/B")):
        before = x.sort_key()
        for name in x.__match_args__:
            moved = _moved(x, other, name)
            assert moved.sort_key() == _naive_sort_key(moved), \
                (type(x).__name__, name)
            if moved != x:
                assert moved.sort_key() != before, (type(x).__name__, name)
        assert x.sort_key() is before


def test_equality_and_hash_ignore_the_sort_key_slot():
    cached, fresh = _keys(), _keys()
    for x in cached:
        x.sort_key()
    for x, y in zip(cached, fresh):
        assert "_sort_key" in type(x).__slots__
        assert y._sort_key is None and x._sort_key is not None
        assert x == y and hash(x) == hash(y), type(x).__name__
        assert "_sort_key" not in type(x).__match_args__


# -- compiled invokes and per-analysis keys ------------------------------------


DISPATCH = """
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1)
     (return 1))))
(public class B extends A ()
  ((method public m () int (throws) (limit 1)
     (return 2))))
(public class C extends A () ())
(public class api/Y extends A () ())
(public class api/Z extends A () ())
(public class Main extends java/lang/Object ()
  ((method public run (A) int (throws) (limit 2)
     (assign r (invoke-virtual m (param0) ()))
     (return r))))
"""

DISPATCH_SUMMARIES = """
summary api/Z m role=neutral ret=any-int perms=
summary api/Y m role=source:Location ret=any-string perms=
"""


class _Applied:
    def __init__(self):
        self.keys = []

    def summary_applied(self, state, rec, sink_hits):
        self.keys.append(rec.key())


def _step_dispatch(p, summaries, classes):
    """The edges of Main.run's virtual invoke over receivers of
    ``classes``, and the keys of the summaries it applied, in order."""
    run = MethodRef("Main", "run", ("A",))
    f = frame_pointer_zero(run)
    store = Store()
    store.join(RegAddr(f, "param0"),
               {machine.ambient_object(c) for c in classes})
    applied = _Applied()
    edges = machine.step_independent(
        p, ControlState(StmtPos(run, 0), f), store, TaintStore(), summaries,
        AllocPolicy(k=1), applied)
    return edges, applied.keys, store


def test_virtual_invoke_edges_in_summary_then_method_order():
    """Receivers that share a callee share its push; summaries are applied
    in key order, then calls are pushed in method order, whatever the
    receivers' hashes (CI runs this under two hash seeds)."""
    p = parse_program(DISPATCH)
    summaries = parse_summaries(DISPATCH_SUMMARIES)
    run = MethodRef("Main", "run", ("A",))
    for classes in (["B", "C", "A", "api/Z", "api/Y"],
                    ["api/Y", "A", "api/Z", "C", "B"]):
        edges, applied, store = _step_dispatch(p, summaries, classes)
        move = ControlState(StmtPos(run, 0, at_move=True),
                            frame_pointer_zero(run))
        assert applied == ["api/Y.m", "api/Z.m"]
        assert [(e.kind, e.dst) for e in edges[:2]] == [("noop", move)] * 2
        pushes = edges[2:]
        assert [e.dst.pos for e in pushes] == [
            StmtPos(MethodRef("A", "m", ()), 0),
            StmtPos(MethodRef("B", "m", ()), 0)]
        assert all(e.kind == PUSH and e.frame == FunFrame(
            frame_pointer_zero(run), move.pos) for e in pushes)
        assert [{v.class_name for v in store.lookup(RegAddr(e.dst.fp, "this"))}
                for e in pushes] == [{"A", "C"}, {"B"}]


def test_invoke_memo_is_kept_per_summary_table():
    """A record's dispatch memo answers for the summary table it was made
    with: the same invoke under another table resolves afresh."""
    p = parse_program(DISPATCH)
    edges, applied, _ = _step_dispatch(p, EMPTY, ["api/Y"])
    assert applied == [] and [e.kind for e in edges] == [PUSH]
    edges, applied, _ = _step_dispatch(
        p, parse_summaries(DISPATCH_SUMMARIES), ["api/Y"])
    assert applied == ["api/Y.m"] and [e.kind for e in edges] == ["noop"]


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _wide_pushdown(tmp_path, monkeypatch):
    """The bundle of the bench's wide-pushdown workload (synth 6x8x3x2,
    seed 1), and its pushdown k=1 config."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))["wide-pushdown"]
    root = synth.generate(synth.Shape.parse(ref["shape"]),
                          ref["seed"]).write(tmp_path / "bundle")
    return load_bundle(root), AnalysisConfig(mode=ref["mode"], k=ref["k"])


def _saturate_recording(monkeypatch, bundle, cfg) -> list:
    """Saturate ``bundle``; returns the results of its engine runs."""
    runs, analyze = [], reach.analyze

    def recorded(*args, **kwargs):
        runs.append(analyze(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(reach, "analyze", recorded)
    units = eps.discover_entry_points(bundle, bundle.program)
    eps.saturate_app(bundle.program, units, cfg, bundle.summaries)
    return runs


def test_tracer_wrappers_see_every_step_and_join(tmp_path, monkeypatch):
    """``bench/tracing.py`` wraps ``machine.step_independent``,
    ``machine.step_dependent`` and ``machine.Store.join``: the engines
    still step through those attributes once per worklist pop, and every
    value-store join goes through ``Store.join``."""
    bundle, cfg = _wide_pushdown(tmp_path, monkeypatch)
    counts = Counter()
    for name in ("step_independent", "step_dependent"):
        def counted(*args, fn=getattr(machine, name), **kwargs):
            counts["steps"] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(machine, name, counted)
    join = machine.Store.join

    def counted_join(store, addr, values):
        counts["joins"] += 1
        return join(store, addr, values)

    monkeypatch.setattr(machine.Store, "join", counted_join)
    (run,) = _saturate_recording(monkeypatch, bundle, cfg)
    assert counts["steps"] == sum(run.visit_counts.values()) == 2624
    assert counts["joins"] == 2094


def test_fixpoint_run_builds_each_state_edge_and_address_once(
        tmp_path, monkeypatch):
    """Control states, edges and register addresses are looked up before
    they are built: no two built during the fixpoint run are equal. Every
    edge of its graph, each ε-summary's ``SUMMARY`` edge included, is built
    once."""
    bundle, cfg = _wide_pushdown(tmp_path, monkeypatch)
    fp = frame_pointer_zero(MethodRef("A", "m", ()))
    state = ControlState(StmtPos(fp.method, 0), fp)  # each __init__ is made
    Edge(state, machine.NOOP, None, state)
    RegAddr(fp, "r")
    built: dict = {cls: [] for cls in (ControlState, Edge, RegAddr)}
    running = []
    for cls, objs in built.items():
        def counting(self, *args, init=cls.__init__, objs=objs, **kwargs):
            init(self, *args, **kwargs)
            if running:
                objs.append(self)
        monkeypatch.setattr(cls, "__init__", counting)
    analyze = reach.analyze

    def flagged(*args, **kwargs):
        running.append(True)
        try:
            return analyze(*args, **kwargs)
        finally:
            running.clear()

    monkeypatch.setattr(reach, "analyze", flagged)
    (run,) = _saturate_recording(monkeypatch, bundle, cfg)
    for cls, objs in built.items():
        assert len(set(objs)) == len(objs), cls.__name__
    assert len(built[ControlState]) == len(run.dsg.nodes) == 1588
    assert (len(built[Edge]) == len(run.dsg.edges)
            + len(run.dsg.epsilon_summaries) == 1972 + 362)
    assert built[RegAddr]


def test_saturation_builds_each_field_address_once(tmp_path, monkeypatch):
    """Field addresses are looked up in their program's table before they
    are built: one wide-pushdown saturation, its seeded entry bindings
    included, builds each of its three field addresses once."""
    bundle, cfg = _wide_pushdown(tmp_path, monkeypatch)
    FieldAddr(ObjectPointer(AmbientSite("A")), "f")  # its __init__ is made
    built, init = [], FieldAddr.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FieldAddr, "__init__", counting)
    units = eps.discover_entry_points(bundle, bundle.program)
    store, _t, _trace = eps.saturate_app(bundle.program, units, cfg,
                                         bundle.summaries)
    assert len(set(built)) == len(built) == 3
    assert set(built) == {a for a, _v in store.items()
                          if isinstance(a, FieldAddr)}


def test_separately_loaded_copies_share_no_keys(bundles_dir):
    """The key tables belong to a program, so to one analysis: analyses of
    two separately loaded copies of a bundle build equal control states
    and register addresses, but share no object."""
    held = []
    for _ in range(2):
        bundle = load_bundle(bundles_dir / "photoquote_full")
        units = eps.discover_entry_points(bundle, bundle.program)
        store, _t, trace = eps.saturate_app(
            bundle.program, units, AnalysisConfig(mode="pushdown", k=1),
            bundle.summaries)
        states = {id(s): s for s in trace.fixpoint.dsg.nodes}
        regs = {id(a): a for a, _v in store.items() if isinstance(a, RegAddr)}
        held.append((states, regs))
    (states1, regs1), (states2, regs2) = held
    assert states1 and regs1
    assert set(states1.values()) == set(states2.values())
    assert set(regs1.values()) == set(regs2.values())
    assert not states1.keys() & states2.keys()
    assert not regs1.keys() & regs2.keys()
