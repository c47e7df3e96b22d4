"""The compiled atomic evaluators and the memoised store join against plain
references, and the tables behind them against their lifetimes.

``machine.compile_atomic`` turns an atomic expression into a (values,
taint) pair of closures, and ``machine.evaluators`` keeps one pair per
expression a statement evaluates on its ``ir.Code`` record. An
operation's value set is read from its program's ``op_results`` table, and
``MonotoneStore.join`` reads each normalised union from a table that a
store and its copies share. Each is checked here against a walk of the
expression or a plain union, and each table against the run that owns it.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, RUN, STRICT_PROGRAMS
from pdcfa import cli, eps, machine, reach
from pdcfa.cli import load_bundle
from pdcfa.ir import (
    AExp,
    AtomicOp,
    BoolLit,
    InstanceOf,
    IntLit,
    Invoke,
    Name,
    NullLit,
    This,
    VoidLit,
    parse_program,
)
from pdcfa.machine import (
    ANY_INT,
    ANY_STRING,
    FALSE,
    NULL,
    TRUE,
    VOID,
    AbstractBool,
    AbstractInt,
    AbstractString,
    ObjectValue,
    RegAddr,
    Store,
    frame_pointer_zero,
    normalize_vals,
    seed_entry_bindings,
)
from pdcfa.reach import AnalysisConfig
from pdcfa.taint import MonotoneStore, TaintStore, TaintVal, parse_summaries
from stores import eval_atomic, eval_atomic_taint

BENCH = Path(__file__).resolve().parent.parent / "bench"
BUNDLES = Path(__file__).resolve().parent / "corpus" / "bundles"
SHIPPED = sorted(p.name for p in BUNDLES.iterdir()
                 if (p / "manifest.json").is_file())
TABLE = parse_summaries(MICRO_SUMMARIES)


# -- the reference: a walk of the expression --------------------------------


def _naive_values(program, ae, fp, store) -> frozenset:
    match ae:
        case Name(reg):
            return store.lookup(RegAddr(fp, reg))
        case This():
            return store.lookup(RegAddr(fp, "this"))
        case IntLit(n):
            return frozenset({AbstractInt(n)})
        case BoolLit(v):
            return frozenset({AbstractBool(v)})
        case NullLit():
            return frozenset({NULL})
        case VoidLit():
            return frozenset({VOID})
        case AtomicOp(op, args):
            vals = [_naive_values(program, a, fp, store) for a in args]
            if any(not v for v in vals):
                return frozenset()
            out: set = set()
            if len(vals) == 1:
                for a in vals[0]:
                    out |= machine._unary_op(op, a)
            else:
                for a in vals[0]:
                    for b in vals[1]:
                        out |= machine._pair_op(op, a, b)
            return normalize_vals(out)
        case InstanceOf(inner, cls):
            out = set()
            for v in _naive_values(program, inner, fp, store):
                if isinstance(v, ObjectValue):
                    out.add(AbstractBool(program.is_subclass(v.class_name,
                                                             cls)))
                elif v == NULL:
                    out.add(FALSE)
                elif isinstance(v, AbstractString):
                    out.add(AbstractBool(
                        cls in ("java/lang/Object", "java/lang/String")))
            return frozenset(out)
    raise TypeError(ae)


def _naive_taint(ae, fp, taint_store) -> frozenset:
    match ae:
        case Name(reg):
            return taint_store.lookup(RegAddr(fp, reg))
        case This():
            return taint_store.lookup(RegAddr(fp, "this"))
        case AtomicOp(_, args):
            out: frozenset = frozenset()
            for a in args:
                out |= _naive_taint(a, fp, taint_store)
            return out
        case InstanceOf(inner, _):
            return _naive_taint(inner, fp, taint_store)
    return frozenset()


def _expressions(stmt) -> list:
    """The atomic expressions ``stmt`` holds, field by field: an invoke's
    arguments stand in its place."""
    out = []
    for name in type(stmt).__match_args__:
        value = getattr(stmt, name)
        if isinstance(value, Invoke):
            value = value.args
        out += [v for v in (value if isinstance(value, tuple) else (value,))
                if isinstance(v, AExp)]
    return out


def _read(store, fn, *args):
    """``fn(*args)`` and the addresses it read from ``store``, in order."""
    reads = []
    store.on_read = reads.append
    try:
        return fn(*args), reads
    finally:
        store.on_read = None


# -- the programs: every shipped bundle, micro program and a synth bundle ---


def _micro_runs():
    sources = [src for src, _out, _rets in MICRO_PROGRAMS.values()]
    sources += list(STRICT_PROGRAMS.values())
    for src in sources:
        program = parse_program(src)
        store, taint = Store(), TaintStore()
        seed_entry_bindings(program, RUN, store, taint)
        yield program, reach.analyze(program, (RUN,), store, taint,
                                     AnalysisConfig(k=1), TABLE)


def _bundle_run(root):
    bundle = load_bundle(root)
    units = eps.discover_entry_points(bundle, bundle.program)
    _s, _t, trace = eps.saturate_app(bundle.program, units,
                                     AnalysisConfig(k=1), bundle.summaries)
    return bundle.program, trace.fixpoint


def _runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    yield from _micro_runs()
    for name in SHIPPED:
        yield _bundle_run(BUNDLES / name)
    yield _bundle_run(synth.generate(synth.Shape.parse("2x4x3x2"), 1)
                      .write(tmp_path / "synth"))


def test_compiled_pairs_equal_a_walk_of_every_expression(tmp_path,
                                                         monkeypatch):
    """Each statement's compiled pairs, those its run stepped with, give
    the value set, the taint and the reads, in order, of a walk of its
    expressions, in every frame the run reached it in and in its root
    frame, on the run's final store pair and on empty stores. An
    expression that reads no register gives the one shared empty taint."""
    forms: set = set()
    checked = 0
    for program, run in _runs(tmp_path, monkeypatch):
        frames: dict = {}
        for state in run.dsg.nodes:
            frames.setdefault(state.pos.method, set()).add(state.fp)
        stores = [(run.final_store, run.final_taint),
                  (Store(), TaintStore())]
        for code in program.code.values():
            exps = _expressions(code.stmt) if code.stmt is not None else []
            pairs = machine.evaluators(program, code)
            assert len(pairs) == len(exps), code.pos
            method = code.pos.method
            fps = frames.get(method, set()) | {frame_pointer_zero(method)}
            for (values, taint), ae in zip(pairs, exps):
                forms |= {type(e) for e in _walk(ae)}
                for fp in sorted(fps, key=lambda f: f.sort_key()):
                    for store, taint_store in stores:
                        assert _read(store, values, fp, store) == _read(
                            store, _naive_values, program, ae, fp, store), \
                            (code.pos, ae)
                        got = _read(taint_store, taint, fp, taint_store)
                        assert got == _read(taint_store, _naive_taint, ae,
                                            fp, taint_store), (code.pos, ae)
                        if not got[1]:
                            assert got[0] is machine._NO_TAINT
                        checked += 1
    assert forms == set(AExp)
    assert checked > 1000


def _walk(ae):
    yield ae
    if isinstance(ae, AtomicOp):
        for a in ae.args:
            yield from _walk(a)
    elif isinstance(ae, InstanceOf):
        yield from _walk(ae.exp)


def test_eval_atomic_is_the_compiled_pair():
    """The tests' ``eval_atomic`` and ``eval_atomic_taint`` call the
    compiled pair: an operation they evaluate lands in the program's
    table."""
    program = parse_program(STRICT_PROGRAMS[sorted(STRICT_PROGRAMS)[0]])
    fp = frame_pointer_zero(RUN)
    store, taint = Store(), TaintStore()
    a = RegAddr(fp, "a")
    store.join(a, {AbstractInt(2)})
    taint.join(a, {TaintVal.SMS})
    exp = AtomicOp("add", (Name("a"), IntLit(3)))
    assert program.op_results == {}
    assert eval_atomic(program, exp, fp, store) == {AbstractInt(5)}
    assert program.op_results == {
        ("add", frozenset({AbstractInt(2)}), frozenset({AbstractInt(3)})):
        frozenset({AbstractInt(5)})}
    assert eval_atomic_taint(program, exp, fp, taint) == {
        TaintVal.SMS}
    with pytest.raises(TypeError, match="not an atomic expression"):
        eval_atomic(program, "a", fp, store)


# -- the memoised join against a plain union and normalisation ---------------

_FP = frame_pointer_zero(RUN)
_ADDRS = st.sampled_from([RegAddr(_FP, r) for r in ("a", "b", "c")])
_VALUES = st.sampled_from(
    [AbstractInt(i) for i in range(10)]
    + [ANY_INT, AbstractString("x"), AbstractString("y"), ANY_STRING, TRUE,
       FALSE, NULL])
_TAINTS = st.sampled_from(list(TaintVal)[:5])


def _plain_join(data: dict, grown: list, normalize, addr, values) -> bool:
    old = data.get(addr, frozenset())
    new = normalize(old | frozenset(values))
    if new == old:
        return False
    data[addr] = new
    grown.append(addr)
    return True


@pytest.mark.parametrize("store_cls, normalize, elements", [
    (Store, normalize_vals, _VALUES),
    (TaintStore, frozenset, _TAINTS),
], ids=["values", "taint"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_memoised_join_equals_a_plain_join(store_cls, normalize, elements,
                                           data):
    """A store, then an empty copy of it that shares its table, take the
    same joins: each join returns, stores and reports to ``on_grow`` what a
    plain union and normalisation does, whether its union was in the table
    or not."""
    joins = data.draw(st.lists(
        st.tuples(_ADDRS, st.frozensets(elements, max_size=5)),
        max_size=30))
    first = store_cls()
    second = first.copy()
    assert second._unions is first._unions
    for store in (first, second):
        plain, plain_grown, grown = {}, [], []
        store.on_grow = grown.append
        for addr, values in joins:
            assert store.join(addr, values) == _plain_join(
                plain, plain_grown, normalize, addr, values)
            assert dict(store.items()) == plain
        assert grown == plain_grown
        assert store.fingerprint() == len(plain_grown)


def test_an_absorbed_join_returns_false_and_leaves_the_store():
    """``{ANY_INT}`` absorbs ``{0}``: the join returns False and calls no
    ``on_grow``, the first time, when it is normalised, and the second,
    when it is read from the table."""
    store, addr = Store(), RegAddr(_FP, "i")
    assert store.join(addr, {ANY_INT})
    grown = []
    store.on_grow = grown.append
    for _ in range(2):
        assert store.join(addr, frozenset({AbstractInt(0)})) is False
        assert dict(store.items()) == {addr: frozenset({ANY_INT})}
    assert grown == []
    assert store.fingerprint() == 1
    assert store._unions[frozenset({ANY_INT}),
                         frozenset({AbstractInt(0)})] == {ANY_INT}


# -- no table outlives its run -----------------------------------------------


def test_each_cli_run_starts_from_empty_tables(tmp_path, monkeypatch):
    """Two ``cli.main`` runs of one bundle in one process: each run's
    program starts its fixpoint run with no compiled record and an empty
    operation table, each store starts with an empty join table, and no
    table of the second run is one of the first's."""
    # per cli run: (program, its table's size, its compiled records) at the
    # fixpoint run's start, and (join table, its size) per store made
    runs: list = []
    analyze, init = reach.analyze, MonotoneStore.__init__

    def fresh_store(self):
        init(self)
        runs[-1]["stores"].append((self._unions, len(self._unions)))

    def recorded(program, *args, **kwargs):
        runs[-1]["starts"].append((
            program, len(program.op_results),
            sum(code.evals is not None for code in program.code.values())))
        return analyze(program, *args, **kwargs)

    monkeypatch.setattr(MonotoneStore, "__init__", fresh_store)
    monkeypatch.setattr(reach, "analyze", recorded)
    for i in range(2):
        runs.append({"starts": [], "stores": []})
        assert cli.main(["--bundle", str(BUNDLES / "photoquote_full"),
                         "--out", str(tmp_path / f"out{i}")]) == 1
    (first,), (second,) = (r["starts"] for r in runs)
    assert first[1:] == second[1:] == (0, 0)
    assert first[0] is not second[0]
    assert first[0].op_results and second[0].op_results  # filled by its run
    assert first[0].op_results is not second[0].op_results
    for run in runs:
        assert run["stores"] and all(size == 0 for _t, size in run["stores"])
    # the tables are held in ``runs``, so no id is reused
    ids = [{id(table) for table, _size in run["stores"]} for run in runs]
    assert not ids[0] & ids[1]
