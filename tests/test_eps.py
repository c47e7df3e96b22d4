"""Entry-point discovery and saturation tests."""

import inspect
import itertools
import json
from collections import Counter
from functools import reduce
from operator import or_
from pathlib import Path
from types import SimpleNamespace

import pytest

from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, STRICT_PROGRAMS
from pdcfa.cli import load_bundle
from pdcfa.eps import (
    EmptyUnit,
    EntryPoint,
    Unit,
    UnknownMethod,
    discover_entry_points,
    saturate_app,
)
from pdcfa.ir import MethodRef, StmtPos, parse_program
from pdcfa import cli, machine, reach, report
from pdcfa.machine import (
    AbstractInt,
    AmbientSite,
    FieldAddr,
    ObjectPointer,
    Store,
)
from pdcfa.reach import AnalysisConfig
from pdcfa.permissions import collect_permissions
from pdcfa.report import emit_heat_map, export_graph
from pdcfa.taint import TaintStore, TaintVal, parse_summaries, extract_findings
from stores import canonical_text, join_store
from views import Window, views, walked_views, with_triggers

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHIPPED = sorted(p.name for p in (Path(__file__).parent / "corpus" /
                                  "bundles").iterdir()
                 if (p / "manifest.json").is_file())

SUMMARIES = parse_summaries("""
summary test/Api getSecret role=source:Location ret=any-string perms=
summary test/Api send role=sink:network ret=void perms=INTERNET
""")

SHARED_FIELD = """
(public class java/lang/String extends java/lang/Object () ())
(public class U extends java/lang/Object
  ((field public f int)
   (field public s java/lang/String))
  ((method public writeOne () void (throws) (limit 2)
     (field-put this f 1)
     (return void))
   (method public writeTwo () void (throws) (limit 2)
     (field-put this f 2)
     (return void))
   (method public taintIt () void (throws) (limit 3)
     (assign v (invoke-static test/Api->getSecret () ()))
     (field-put this s v)
     (return void))
   (method public leakIt () void (throws) (limit 3)
     (field-get v this s)
     (assign r (invoke-static test/Api->send (v) (java/lang/String)))
     (return void))))
"""


def _unit(name, *methods, cls="U"):
    eps = tuple(EntryPoint(MethodRef(cls, m, ()), "ui-handler", "layout")
                for m in methods)
    return Unit(name, "activity", eps)


def _field_addr(field):
    return FieldAddr(ObjectPointer(AmbientSite("U")), field)


def test_discovery_pass_through(bundles_dir):
    bundle = load_bundle(bundles_dir / "photoquote_full")
    units = discover_entry_points(bundle, bundle.program)
    assert [u.name for u in units] == ["PhotoQuote", "UploadTask"]
    assert [u.kind for u in units] == ["activity", "background"]
    names = {u.label(ep) for u in units for ep in u.entry_points}
    assert names == {"onCreate", "doInBackground", "aboutButton",
                     "nextButton", "prevButton", "quoteButton"}
    (bg,) = [u for u in units if u.name == "UploadTask"]
    assert bg.entry_points[0].category == "async-operation"


def test_discovery_unknown_method(bundles_dir):
    bundle = load_bundle(bundles_dir / "photoquote_full")
    bad = dict(bundle.manifest)
    bad["units"] = [{"name": "X", "kind": "activity", "entryPoints": [
        {"class": "app/PhotoQuote", "method": "ghost", "paramTypes": []}]}]
    bundle.manifest = bad
    with pytest.raises(UnknownMethod):
        discover_entry_points(bundle, bundle.program)


def test_single_entry_point_reaches_fixpoint_in_one_extra_pass():
    program = parse_program(SHARED_FIELD)
    unit = _unit("U", "writeOne")
    cfg = AnalysisConfig(k=1)
    store, _taint, trace = saturate_app(program, [unit], cfg, SUMMARIES)
    assert AbstractInt(1) in store.lookup(_field_addr("f"))
    assert trace.global_rounds == 2  # second sweep adds nothing


def test_two_writers_join():
    program = parse_program(SHARED_FIELD)
    unit = _unit("U", "writeOne", "writeTwo")
    cfg = AnalysisConfig(k=1)
    store, _taint, _trace = saturate_app(program, [unit], cfg, SUMMARIES)
    assert store.lookup(_field_addr("f")) >= {AbstractInt(1), AbstractInt(2)}


def test_reader_before_writer_still_sees_taint():
    """The leaking entry point is declared before the tainting one; the
    fixpoint makes declaration order irrelevant."""
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    unit = _unit("U", "leakIt", "taintIt")
    _store, _taint, trace = saturate_app(program, [unit], cfg, SUMMARIES)
    findings = extract_findings(trace)
    assert any(f.category == TaintVal.LOCATION for f in findings)
    assert {f.trigger.entry_point for f in findings} == {"leakIt"}


def test_one_fixpoint_run_then_each_entry_point_once(monkeypatch):
    """One app-wide run with every entry point as a root, then one
    trigger per entry point, in declared order."""
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    runs: list = []
    analyze = reach.analyze

    def counted(program, entry, *args, **kwargs):
        runs.append(tuple(e.method_name for e in entry))
        return analyze(program, entry, *args, **kwargs)

    monkeypatch.setattr(reach, "analyze", counted)
    units = [_unit("R", "leakIt", "writeOne"), _unit("W", "writeTwo",
                                                     "taintIt")]
    order = ("leakIt", "writeOne", "writeTwo", "taintIt")
    _s, _t, trace = saturate_app(program, units, cfg, SUMMARIES)
    assert runs == [order]
    assert [(t.unit, t.entry_point, e.method_name)
            for t, e in trace.triggers] == [
        ("R", "leakIt", "leakIt"), ("R", "writeOne", "writeOne"),
        ("W", "writeTwo", "writeTwo"), ("W", "taintIt", "taintIt")]
    assert trace.global_rounds == 2
    findings = extract_findings(trace)
    assert {f.trigger.entry_point for f in findings} == {"leakIt"}


def test_cross_unit_flow_in_both_orders():
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    writer = _unit("W", "taintIt")
    reader = _unit("R", "leakIt")
    for units in ([writer, reader], [reader, writer]):
        _s, _t, trace = saturate_app(program, list(units), cfg, SUMMARIES)
        findings = extract_findings(trace)
        assert any(f.category == TaintVal.LOCATION
                   and f.sink_kind == "network" for f in findings), \
            [u.name for u in units]


def test_disjoint_units_join_of_independent_runs():
    program = parse_program(SHARED_FIELD + """
(public class V extends java/lang/Object
  ((field public g int))
  ((method public писVx () void (throws) (limit 2)
     (field-put this g 7)
     (return void))))
""".replace("писVx", "writeV"))
    cfg = AnalysisConfig(k=1)
    u = _unit("U", "writeOne")
    v = _unit("V", "writeV", cls="V")
    together, _t, _tr = saturate_app(program, [u, v], cfg, SUMMARIES)
    alone_u, _t1, _ = saturate_app(program, [u], cfg, SUMMARIES)
    alone_v, _t2, _ = saturate_app(program, [v], cfg, SUMMARIES)
    merged = alone_u.copy()
    join_store(merged, alone_v)
    assert canonical_text(together) == canonical_text(merged)


def test_saturated_store_identical_across_orderings():
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    units = [_unit("A", "writeOne"), _unit("B", "taintIt"),
             _unit("C", "leakIt")]
    texts = set()
    for perm in itertools.permutations(units):
        store, taint, _ = saturate_app(program, list(perm), cfg, SUMMARIES)
        texts.add(canonical_text(store) + "|" + canonical_text(taint))
    assert len(texts) == 1


def test_coverage_superset_of_single_entry_point():
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    both = _unit("U", "taintIt", "leakIt")
    _s, _t, trace = saturate_app(program, [both], cfg, SUMMARIES)
    all_findings = {(f.category, f.sink_state.pos) for f in
                    extract_findings(trace)}
    solo = _unit("U", "leakIt")
    _s2, _t2, solo_trace = saturate_app(program, [solo], cfg, SUMMARIES)
    solo_findings = {(f.category, f.sink_state.pos) for f in
                     extract_findings(solo_trace)}
    assert solo_findings <= all_findings


SAME_NAME = """
(public class java/lang/String extends java/lang/Object () ())
(public class app/A extends java/lang/Object ()
  ((method public onClick () void (throws) (limit 3)
     (assign v (invoke-static test/Api->getSecret () ()))
     (assign r (invoke-static test/Api->send (v) (java/lang/String)))
     (return void))))
(public class app/B extends java/lang/Object ()
  ((method public onClick () void (throws) (limit 3)
     (assign v (invoke-static test/Api->getDeviceId () ()))
     (assign r (invoke-static test/Api->send (v) (java/lang/String)))
     (return void))))
"""

# both entry points call one leaking helper: the same flow, told apart only
# by the entry point that triggers it
SAME_NAME_SHARED_HELPER = """
(public class java/lang/String extends java/lang/Object () ())
(public class app/Lib extends java/lang/Object ()
  ((method public leak () void (throws) (limit 3)
     (assign v (invoke-static test/Api->getSecret () ()))
     (assign r (invoke-static test/Api->send (v) (java/lang/String)))
     (return void))))
(public class app/A extends java/lang/Object ()
  ((method public onClick () void (throws) (limit 2)
     (assign r (invoke-static app/Lib->leak () ()))
     (return void))))
(public class app/B extends java/lang/Object ()
  ((method public onClick () void (throws) (limit 2)
     (assign r (invoke-static app/Lib->leak () ()))
     (return void))))
"""


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
def test_entry_points_sharing_a_method_name_in_one_unit_both_report(mode):
    summaries = parse_summaries("""
summary test/Api getSecret role=source:Location ret=any-string perms=
summary test/Api getDeviceId role=source:DeviceID ret=any-string perms=
summary test/Api send role=sink:network ret=void perms=INTERNET
""")
    refs = (MethodRef("app/A", "onClick", ()),
            MethodRef("app/B", "onClick", ()))
    unit = Unit("U", "activity", tuple(EntryPoint(r, "ui-handler", "layout")
                                       for r in refs))
    cfg = AnalysisConfig(mode=mode, k=1)
    _s, _t, trace = saturate_app(parse_program(SAME_NAME), [unit], cfg,
                                 summaries)
    assert [e for _t, e in trace.triggers] == list(refs)
    flows = {(f.category, f.sink_state.pos.method.class_name)
             for f in extract_findings(trace)}
    assert flows == {(TaintVal.LOCATION, "app/A"),
                     (TaintVal.DEVICE_ID, "app/B")}

    _s, _t, trace = saturate_app(parse_program(SAME_NAME_SHARED_HELPER),
                                 [unit], cfg, summaries)
    findings = extract_findings(trace)
    assert sorted((f.trigger.unit, f.trigger.entry_point, f.category)
                  for f in findings) == [
        ("U", "app/A.onClick()", TaintVal.LOCATION),
        ("U", "app/B.onClick()", TaintVal.LOCATION)]


LEAK = """
(public class java/lang/String extends java/lang/Object () ())
(public class app/A extends java/lang/Object ()
  ((method public leak () void (throws) (limit 3)
     (assign v (invoke-static test/Api->getSecret () ()))
     (assign r (invoke-static test/Api->send (v) (java/lang/String)))
     (return void))))
"""


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
def test_an_entry_point_declared_twice_keeps_its_sources_owner(mode):
    """Two units declare one entry method: both triggers report its flow,
    but the source belongs to the first, so the first trigger's witness
    runs from source to sink and the second's from the entry to the source
    and from the entry to the sink."""
    leak = EntryPoint(MethodRef("app/A", "leak", ()), "ui-handler",
                      "layout")
    units = [Unit("U", "activity", (leak,)), Unit("V", "service", (leak,))]
    _s, _t, trace = saturate_app(parse_program(LEAK), units,
                                 AnalysisConfig(mode=mode, k=1), SUMMARIES)
    first, second = extract_findings(trace)
    assert (first.trigger.unit, second.trigger.unit) == ("U", "V")
    root = trace.fixpoint.masks.roots[leak.method_ref][0]
    assert [(states[0], states[-1]) for states, _ in first.segments] == [
        (first.source_state, first.sink_state)]
    assert [(states[0], states[-1]) for states, _ in second.segments] == [
        (root, second.source_state), (root, second.sink_state)]


def test_empty_units_rejected():
    program = parse_program(SHARED_FIELD)
    with pytest.raises(EmptyUnit):
        saturate_app(program, [], AnalysisConfig(k=1), SUMMARIES)


# -- the app-wide fixpoint run and the entry-point views of its graph --------


def _sweep_reference(program, units, cfg, summaries) -> tuple:
    """The store pair of a schedule: run every entry point in declared
    order, each from the pair the previous run left, until a sweep of them
    grows nothing."""
    store, taint = Store(), TaintStore()
    shared = reach.FiniteShared() if cfg.mode == reach.FINITE else None

    def size():  # the flow facts only grow, and refuse duplicates
        facts = (sum(map(len, shared.call_edges.values()))
                 + len(shared.handler_records) if shared is not None else 0)
        return store.fingerprint(), taint.fingerprint(), facts

    while True:
        before = size()
        for unit in units:
            for ep in unit.entry_points:
                machine.seed_entry_bindings(program, ep.method_ref, store,
                                            taint)
                result = reach.analyze(program, (ep.method_ref,), store, taint,
                                       cfg, summaries, shared)
                store, taint = result.final_store, result.final_taint
        if size() == before:
            return store, taint


def _result_parts(result) -> tuple:
    """What a result reports, as sets: node order is not observable in any
    report (reversing it in every entry result moves no report byte)."""
    dsg = result.dsg
    return (set(dsg.nodes), set(dsg.edges), set(dsg.epsilon_summaries),
            result.visit_counts, result.applications)


def _saturate_recorded(monkeypatch, program, units, cfg, summaries) -> tuple:
    """Saturate, recording its engine run. Returns the store, the taint
    store, the trace, and the fixpoint run's bound arguments, its
    ``shared`` argument set to the flow facts the run grew (None under
    pushdown)."""
    calls, facts = [], {}
    analyze = reach.analyze
    result_of = reach._BaseEngine._result

    def kept(engine, *args):
        result = result_of(engine, *args)
        facts[id(result)] = getattr(engine, "shared", None)
        return result

    def recorded(*args, **kwargs):
        result = analyze(*args, **kwargs)
        bound = inspect.signature(analyze).bind(*args, **kwargs)
        bound.arguments["shared"] = facts[id(result)]
        calls.append((bound.arguments, result))
        return result

    monkeypatch.setattr(reach._BaseEngine, "_result", kept)
    monkeypatch.setattr(reach, "analyze", recorded)
    store, taint, trace = saturate_app(program, units, cfg, summaries)
    monkeypatch.setattr(reach._BaseEngine, "_result", result_of)
    monkeypatch.setattr(reach, "analyze", analyze)
    assert trace.complete
    (fix_args, fixpoint), = calls
    assert trace.fixpoint is fixpoint
    return store, taint, trace, fix_args


def _assert_views_equal_plain_runs(program, trace, fix_args, cfg,
                                   summaries):
    """Each entry point's view, read from the fixpoint run's masks, equals
    a plain run from that entry alone over the saturated pair (and, finite,
    the saturated flow facts)."""
    fixpoint = trace.fixpoint
    for view in views(trace):
        plain = reach.analyze(program, (view.entry,), fixpoint.final_store,
                              fixpoint.final_taint, cfg, summaries,
                              fix_args["shared"])
        assert _result_parts(view) == _result_parts(plain), view.entry.sig()


def _check_saturation(monkeypatch, program, units, cfg, summaries):
    store, taint, trace, fix_args = _saturate_recorded(
        monkeypatch, program, units, cfg, summaries)
    fixpoint = trace.fixpoint
    ref_store, ref_taint = _sweep_reference(program, units, cfg, summaries)
    assert canonical_text(fixpoint.final_store) == canonical_text(ref_store)
    assert canonical_text(fixpoint.final_taint) == canonical_text(ref_taint)

    saturated = (fixpoint.final_store.fingerprint(),
                 fixpoint.final_taint.fingerprint())
    assert (store.fingerprint(), taint.fingerprint()) == saturated
    assert [e for _t, e in trace.triggers] == [
        ep.method_ref for u in units for ep in u.entry_points]
    _assert_views_equal_plain_runs(program, trace, fix_args, cfg, summaries)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("name", SHIPPED)
def test_saturation_equals_sweeps_and_memo_equals_plain_runs(
        bundles_dir, monkeypatch, name, mode, k):
    """The fixpoint run's store pair equals the one repeated sweeps reach;
    each entry point's view of the fixpoint graph equals a plain run from
    the same pair; no view grows the pair."""
    bundle = load_bundle(bundles_dir / name)
    units = discover_entry_points(bundle, bundle.program)
    _check_saturation(monkeypatch, bundle.program, units,
                      AnalysisConfig(mode=mode, k=k), bundle.summaries)


def _generated_bundle(tmp_path, monkeypatch, workload) -> tuple:
    """The synthetic bundle of a ``bench/reference.json`` workload, its
    units and its ``k``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))[workload]
    root = synth.generate(synth.Shape.parse(ref["shape"]),
                          ref["seed"]).write(tmp_path / "bundle")
    bundle = load_bundle(root)
    return bundle, discover_entry_points(bundle, bundle.program), ref["k"]


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
def test_saturation_equals_sweeps_on_generated_bundle(tmp_path, monkeypatch,
                                                      mode):
    bundle, units, k = _generated_bundle(tmp_path, monkeypatch,
                                         "finite-witness")
    _check_saturation(monkeypatch, bundle.program, units,
                      AnalysisConfig(mode=mode, k=k), bundle.summaries)


# per bench/reference.json bundle and engine: the fixpoint run's states,
# edges, ε-summaries and worklist pops, its views' summed node count and
# globalRounds
FIXPOINT_WORK = {
    ("wide-pushdown", reach.PUSHDOWN): (1588, 1972, 362, 2624, 4488, 2),
    ("wide-pushdown", reach.FINITE): (2200, 2608, 0, 3140, 56778, 2),
    ("finite-witness", reach.PUSHDOWN): (308, 368, 76, 476, 608, 2),
    ("finite-witness", reach.FINITE): (400, 484, 0, 560, 1444, 2),
}


@pytest.mark.parametrize(("workload", "mode"), sorted(FIXPOINT_WORK))
def test_fixpoint_run_work_is_pinned(tmp_path, monkeypatch, workload, mode):
    """The fixpoint run's work and its views' size on the synth bundles: no
    golden reads worklist pops, so a change to either engine's schedule
    moves these pins on purpose or not at all."""
    bundle, units, k = _generated_bundle(tmp_path, monkeypatch, workload)
    _s, _t, trace, _args = _saturate_recorded(
        monkeypatch, bundle.program, units, AnalysisConfig(mode=mode, k=k),
        bundle.summaries)
    dsg = trace.fixpoint.dsg
    assert (len(dsg.nodes), len(dsg.edges), len(dsg.epsilon_summaries),
            sum(trace.fixpoint.visit_counts.values()),
            sum(len(view.dsg.nodes) for view in views(trace)),
            trace.global_rounds) == FIXPOINT_WORK[(workload, mode)]


# a pushdown fixpoint run's stack-top bookkeeping: its (node, entry) pairs,
# the nodes more than one entry reaches, its entries, and the (frame, push
# source) records of its stack-dependent nodes; wide-pushdown's, synth
# 2x4x3x2's (the finite-witness bundle, seed 1, k=1) and the sum over the
# shipped bundles at k 0-2
TOPS_WORK = (1600, 8, 274, 650)
TOPS_WORK_BEYOND = {"2x4x3x2": (320, 8, 52, 116),
                    "shipped": (459, 8, 80, 85)}


def _pushdown_engines(monkeypatch) -> list:
    """The pushdown engines whose runs end from now on, in order."""
    engines = []
    result_of = reach._PushdownEngine._result

    def kept(engine):
        engines.append(engine)
        return result_of(engine)

    monkeypatch.setattr(reach._PushdownEngine, "_result", kept)
    return engines


def _tops_work(engine) -> tuple:
    """``engine``'s stack-top bookkeeping, as ``TOPS_WORK`` counts it, and
    how many entries reach each node. Every node has an entry, and exactly
    the stack-dependent nodes hold a ``tops`` table."""
    nodes = len(engine.dsg.states)
    reached = [len(engine.entries_of[sid]) for sid in range(nodes)]
    records = sum(len(sources) for frames in engine.tops.values()
                  for sources in frames.values())
    assert min(reached) == 1
    assert set(engine.tops) == {sid for sid in range(nodes)
                                if engine.dependent[sid]}
    return (sum(reached), sum(n > 1 for n in reached), len(engine.contexts),
            records), reached


def test_pushdown_tops_work_is_pinned(tmp_path, monkeypatch):
    """The pushdown engine keeps calling contexts once per entry node and
    hands them only to stack-dependent nodes, so its bookkeeping grows with
    the states: nearly every node is reached by one entry alone."""
    bundle, units, k = _generated_bundle(tmp_path, monkeypatch,
                                         "wide-pushdown")
    engines = _pushdown_engines(monkeypatch)
    saturate_app(bundle.program, units, AnalysisConfig(k=k),
                 bundle.summaries)
    (engine,) = engines
    work, reached = _tops_work(engine)
    nodes, shared = len(reached), work[1]
    assert work == TOPS_WORK
    assert shared * 100 <= nodes
    assert sum(reached) <= nodes + 2 * shared


@pytest.mark.parametrize("source", sorted(TOPS_WORK_BEYOND))
def test_pushdown_tops_work_is_pinned_beyond_wide_pushdown(
        bundles_dir, tmp_path, monkeypatch, source):
    """The stack-top bookkeeping of the pushdown fixpoint run on synth
    2x4x3x2, and summed over the 15 shipped saturations (each bundle at k
    0-2), one engine run each."""
    if source == "shipped":
        cases = [(load_bundle(bundles_dir / name), k)
                 for name in SHIPPED for k in (0, 1, 2)]
    else:
        bundle, _units, k = _generated_bundle(tmp_path, monkeypatch,
                                              "finite-witness")
        cases = [(bundle, k)]
    engines = _pushdown_engines(monkeypatch)
    for bundle, k in cases:
        saturate_app(bundle.program,
                     discover_entry_points(bundle, bundle.program),
                     AnalysisConfig(k=k), bundle.summaries)
    assert len(engines) == len(cases)
    work = [_tops_work(engine)[0] for engine in engines]
    assert tuple(map(sum, zip(*work))) == TOPS_WORK_BEYOND[source]


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("workload", ["wide-pushdown", "finite-witness"])
def test_views_equal_plain_runs_on_generated_bundles(tmp_path, monkeypatch,
                                                     workload, mode):
    """Each entry point's view of the fixpoint graph equals a plain run from
    that entry alone over the saturated pair: nodes, edges, ε-summaries,
    per-state visit counts and applications. The shipped bundles get the
    same check, at every k, through ``_check_saturation``."""
    bundle, units, k = _generated_bundle(tmp_path, monkeypatch, workload)
    cfg = AnalysisConfig(mode=mode, k=k)
    _s, _t, trace, fix_args = _saturate_recorded(
        monkeypatch, bundle.program, units, cfg, bundle.summaries)
    assert len(trace.triggers) == sum(len(u.entry_points) for u in units)
    _assert_views_equal_plain_runs(bundle.program, trace, fix_args, cfg,
                                   bundle.summaries)


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("source",
                         ["shipped", "wide-pushdown", "finite-witness"])
def test_views_together_are_the_fixpoint_graph(bundles_dir, tmp_path,
                                               monkeypatch, source, mode):
    """On a complete saturation the views' nodes and edges, read from the
    fixpoint run's masks, together are the fixpoint run's graph. A view's
    adjacency (``out_edges``) holds its ``edges`` and, as ``SUMMARY``
    edges, its ``epsilon_summaries``. Shipped bundles at k 0-2, synth
    bundles at their ``bench/reference.json`` k."""
    if source == "shipped":
        cases = []
        for name in SHIPPED:
            bundle = load_bundle(bundles_dir / name)
            units = discover_entry_points(bundle, bundle.program)
            cases += [(f"{name} k={k}", bundle, units, k) for k in (0, 1, 2)]
    else:
        bundle, units, k = _generated_bundle(tmp_path, monkeypatch, source)
        cases = [(source, bundle, units, k)]
    for label, bundle, units, k in cases:
        _s, _t, trace, _args = _saturate_recorded(
            monkeypatch, bundle.program, units,
            AnalysisConfig(mode=mode, k=k), bundle.summaries)
        fixpoint, parts = trace.fixpoint, views(trace)
        for view in parts:
            dsg = view.dsg
            out = [e for s in dsg.nodes for e in dsg.out_edges(s)]
            assert ({e for e in out if e.kind != machine.SUMMARY}
                    == set(dsg.edges)), label
            assert ({(e.src, e.dst) for e in out
                     if e.kind == machine.SUMMARY}
                    == dsg.epsilon_summaries), label
        assert (set().union(*(v.dsg.nodes for v in parts))
                == set(fixpoint.dsg.nodes)), label
        assert (set().union(*(v.dsg.edges for v in parts))
                == set(fixpoint.dsg.edges)), label
        assert (set().union(*(v.dsg.epsilon_summaries for v in parts))
                == fixpoint.dsg.epsilon_summaries), label


MICRO = {**{name: src for name, (src, _o, _r) in MICRO_PROGRAMS.items()},
         **STRICT_PROGRAMS}


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("name", sorted(MICRO))
def test_views_equal_plain_runs_with_every_method_an_entry_point(
        monkeypatch, name, mode):
    """Callees become roots too. A stack-dependent state of a root's method
    can then have a balanced path from the root and a pushed frame on top,
    as a return inside a handler region does, so both terms of its visit
    count show."""
    program = parse_program(MICRO[name])
    refs = sorted((m for m in program.methods if m.class_name == "Main"),
                  key=MethodRef.sort_key)
    unit = Unit("U", "activity", tuple(EntryPoint(r, "ui-handler", "layout")
                                       for r in refs))
    cfg, summaries = AnalysisConfig(mode=mode, k=0), parse_summaries(
        MICRO_SUMMARIES)
    _s, _t, trace, fix_args = _saturate_recorded(monkeypatch, program,
                                                 [unit], cfg, summaries)
    _assert_views_equal_plain_runs(program, trace, fix_args, cfg, summaries)


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("name", SHIPPED)
def test_reporting_runs_step_nothing_and_share_the_saturated_pair(
        bundles_dir, monkeypatch, name, mode):
    """After the fixpoint run returns, no machine step and no expression
    evaluation runs, compiled or not, and neither the operation table nor
    the stores' join tables grow: saturation and the findings, permissions
    and heat map read the fixpoint run's graph and its masks, and the
    trace holds the run's store pair itself."""
    bundle = load_bundle(bundles_dir / name)
    program = bundle.program
    units = discover_entry_points(bundle, program)
    analyze, runs, late_calls, sizes = reach.analyze, [], [], []

    def tables():
        return (len(program.op_results), len(runs[0].final_store._unions),
                len(runs[0].final_taint._unions))

    def counted(fname, fn):
        def wrapper(*args, **kwargs):
            if runs:
                late_calls.append(fname)
            return fn(*args, **kwargs)
        return wrapper

    def recorded(*args, **kwargs):
        runs.append(analyze(*args, **kwargs))
        sizes.append(tables())
        for code in program.code.values():
            if code.evals:
                code.evals = tuple(
                    (counted("values", values), counted("taint", taint))
                    for values, taint in code.evals)
        return runs[-1]

    monkeypatch.setattr(reach, "analyze", recorded)
    for fname in ("step_independent", "step_dependent", "evaluators",
                  "compile_atomic"):
        monkeypatch.setattr(machine, fname,
                            counted(fname, getattr(machine, fname)))
    store, taint, trace = saturate_app(program, units,
                                       AnalysisConfig(mode=mode, k=1),
                                       bundle.summaries)
    assert trace.complete and trace.triggers
    extract_findings(trace)
    collect_permissions(trace)
    emit_heat_map(trace, program)
    assert late_calls == []
    assert any(code.evals for code in program.code.values())
    assert sizes == [tables()]
    assert trace.fixpoint is runs[0]
    assert store is runs[0].final_store and taint is runs[0].final_taint


def test_saturation_builds_one_analysis_result(bundles_dir, monkeypatch):
    """A saturation, and the reports read from it, build one
    ``AnalysisResult``, its fixpoint run's, and copy none."""
    built = []

    class Counted(reach.AnalysisResult):
        def __new__(cls, *args, **kwargs):
            built.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(reach, "AnalysisResult", Counted)
    bundle = load_bundle(bundles_dir / "photoquote_full")
    units = discover_entry_points(bundle, bundle.program)
    for mode in (reach.PUSHDOWN, reach.FINITE):
        built.clear()
        _s, _t, trace = saturate_app(bundle.program, units,
                                     AnalysisConfig(mode=mode, k=1),
                                     bundle.summaries)
        assert len(trace.triggers) == 6
        assert extract_findings(trace) and collect_permissions(trace)
        emit_heat_map(trace, bundle.program)
        export_graph(trace.fixpoint, [], bundle.program)
        assert built == [Counted], mode
        assert type(trace.fixpoint) is Counted


def _mask_cases(bundles_dir, tmp_path, monkeypatch, source) -> list:
    """(label, program, units, k, summaries) for the views-from-masks
    tests: shipped bundles at k 0-2, synth workloads at their reference k,
    and each micro program with every method of ``Main`` an entry point,
    the first of them declared again by a second unit."""
    if source == "shipped":
        cases = []
        for name in SHIPPED:
            bundle = load_bundle(bundles_dir / name)
            units = discover_entry_points(bundle, bundle.program)
            cases += [(f"{name} k={k}", bundle.program, units, k,
                       bundle.summaries) for k in (0, 1, 2)]
        return cases
    if source == "micro":
        cases = []
        for name in sorted(MICRO):
            program = parse_program(MICRO[name])
            refs = sorted((m for m in program.methods
                           if m.class_name == "Main"), key=MethodRef.sort_key)
            declared = tuple(EntryPoint(r, "ui-handler", "layout")
                             for r in refs)
            units = [Unit("U", "activity", declared),
                     Unit("V", "activity", declared[:1])]
            cases.append((name, program, units, 0,
                          parse_summaries(MICRO_SUMMARIES)))
        return cases
    bundle, units, k = _generated_bundle(tmp_path, monkeypatch, source)
    return [(source, bundle.program, units, k, bundle.summaries)]


MASK_SOURCES = ["shipped", "micro", "wide-pushdown", "finite-witness"]


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("source", MASK_SOURCES)
def test_views_from_root_masks_equal_the_walk_they_replace(
        bundles_dir, tmp_path, monkeypatch, source, mode):
    """Every view's nodes, pop frames, visit counts and applications, read
    from the masks, equal the reference walk's. A root that is a node of
    another root's view puts its empty stack on its own view alone. The
    DOT of the first, middle and last view with that view's findings
    equals that of the walk's view."""
    shadowed = 0  # empty-stack tops of a root, in another root's view
    for label, program, units, k, summaries in _mask_cases(
            bundles_dir, tmp_path, monkeypatch, source):
        _s, _t, trace = saturate_app(
            program, units, AnalysisConfig(mode=mode, k=k), summaries)
        run, parts = trace.fixpoint, views(trace)
        refs = walked_views(program, run, {v.entry: None for v in parts})
        for view in parts:
            nodes, frames, visits, apps = refs[view.entry]
            assert set(view.dsg.nodes) == set(nodes), label
            assert view.dsg.pop_frames == frames, label
            assert view.visit_counts == visits, label
            assert view.applications == apps, label
            for other in parts:
                if mode == reach.PUSHDOWN and other.entry != view.entry \
                        and other.root in nodes:
                    shadowed += sum(
                        None in held and None not in frames.get(t, {})
                        for t, held in refs[other.entry][1].items())
        for i in sorted({0, len(parts) // 2, len(parts) - 1}):
            nodes, frames, _visits, apps = refs[parts[i].entry]
            walked = SimpleNamespace(dsg=Window(run.dsg, nodes, frames),
                                     applications=apps)
            found = extract_findings(with_triggers(trace,
                                                   [trace.triggers[i]]))
            assert (export_graph(parts[i], found, program)
                    == export_graph(walked, found, program)), (label, i)
    if mode == reach.PUSHDOWN and source == "micro":
        assert shadowed


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("source", MASK_SOURCES)
def test_heat_map_equals_the_walks_summed_visits(
        bundles_dir, tmp_path, monkeypatch, source, mode):
    """The heat map of the first, middle and all triggers, with every
    statement listed, sums the visit counts of those triggers' walked
    views per method and per statement; an entry point declared by two
    units (each micro case) is counted once per trigger. A
    stack-dependent node's frame masks together are its mask."""
    monkeypatch.setattr(report, "_TOP_N", 10**6)
    doubled = 0
    for label, program, units, k, summaries in _mask_cases(
            bundles_dir, tmp_path, monkeypatch, source):
        _s, _t, trace = saturate_app(
            program, units, AnalysisConfig(mode=mode, k=k), summaries)
        entries = [e for _t, e in trace.triggers]
        refs = walked_views(program, trace.fixpoint, dict.fromkeys(entries))
        doubled += len(entries) - len(set(entries))
        masks = trace.fixpoint.masks
        for t, held in masks.frames.items():  # each frame a part's visit
            assert reduce(or_, held.values()) == masks.node[t], label
        for n in sorted({1, len(entries) // 2, len(entries)}):
            per_stmt, per_method = Counter(), Counter()
            for entry in entries[:n]:
                for s, count in refs[entry][2].items():
                    per_stmt[s.pos.method, s.pos.index] += count
                    per_method[s.pos.method] += count
            doc = emit_heat_map(with_triggers(trace, trace.triggers[:n]),
                                program)
            assert sorted((d["class"], d["method"], d["index"], d["line"],
                           d["visits"]) for d in doc["statements"]) == sorted(
                (m.class_name, m.method_name, i,
                 program.line_of(StmtPos(m, i)), count)
                for (m, i), count in per_stmt.items()), (label, n)
            assert sorted((d["class"], d["method"], d["visits"])
                          for d in doc["methods"]) == sorted(
                (m.class_name, m.method_name, count)
                for m, count in per_method.items()), (label, n)
    assert doubled or source != "micro"


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("source", MASK_SOURCES)
def test_witnesses_stay_inside_their_triggers_walked_views(
        bundles_dir, tmp_path, monkeypatch, source, mode):
    """Every witness segment keeps to the walked view it was searched in:
    a segment to the sink to its finding's trigger's, a segment to the
    source to the view of the source's owner, the first trigger in
    declared order whose view holds it. Its states are nodes of that view,
    and under pushdown each pop's frame is among the view's tops at the
    popping state."""
    checked = 0
    for label, program, units, k, summaries in _mask_cases(
            bundles_dir, tmp_path, monkeypatch, source):
        _s, _t, trace = saturate_app(
            program, units, AnalysisConfig(mode=mode, k=k), summaries)
        entry_of = dict(trace.triggers)
        refs = walked_views(program, trace.fixpoint,
                            dict.fromkeys(entry_of.values()))
        for f in extract_findings(trace):
            owner = next(e for _t, e in trace.triggers
                         if f.source_state in refs[e][0])
            for states, steps in f.segments:
                entry = (entry_of[f.trigger] if states[-1] == f.sink_state
                         else owner)
                nodes, tops, _visits, _apps = refs[entry]
                assert set(states) <= nodes.keys(), label
                for step in steps:
                    if step.kind == reach.POP and tops is not None:
                        assert step.frame in tops.get(step.src, ()), label
                checked += 1
    assert checked
