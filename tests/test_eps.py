"""Entry-point discovery and saturation tests."""

import inspect
import itertools
import json
from pathlib import Path

import pytest

from pdcfa.cli import load_bundle
from pdcfa.eps import (
    EmptyUnit,
    EntryPoint,
    Unit,
    UnknownMethod,
    discover_entry_points,
    saturate_app,
)
from pdcfa.ir import MethodRef, parse_program
from pdcfa import cli, machine, reach
from pdcfa.machine import (
    AbstractInt,
    AmbientSite,
    FieldAddr,
    ObjectPointer,
    Store,
)
from pdcfa.reach import AnalysisConfig
from pdcfa.taint import TaintStore, TaintVal, parse_summaries, extract_findings

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
    names = {ep.label() for u in units for ep in u.entry_points}
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
    findings = extract_findings(trace.results)
    assert any(f.category == TaintVal.LOCATION for f in findings)
    assert {f.trigger.entry_point for f in findings} == {"leakIt"}


def test_one_fixpoint_run_then_each_entry_point_once(monkeypatch):
    """One app-wide run with every entry point as a root, then one
    reporting run per entry point, in declared order."""
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    runs: list = []
    analyze = reach.analyze

    def counted(program, entry, *args, **kwargs):
        entries = entry if isinstance(entry, tuple) else (entry,)
        runs.append(tuple(e.method_name for e in entries))
        return analyze(program, entry, *args, **kwargs)

    monkeypatch.setattr(reach, "analyze", counted)
    units = [_unit("R", "leakIt", "writeOne"), _unit("W", "writeTwo",
                                                     "taintIt")]
    order = ("leakIt", "writeOne", "writeTwo", "taintIt")
    _s, _t, trace = saturate_app(program, units, cfg, SUMMARIES)
    assert runs == [order] + [(m,) for m in order]
    assert trace.global_rounds == 2
    findings = extract_findings(trace.results)
    assert {f.trigger.entry_point for f in findings} == {"leakIt"}


def test_cross_unit_flow_in_both_orders():
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    writer = _unit("W", "taintIt")
    reader = _unit("R", "leakIt")
    for units in ([writer, reader], [reader, writer]):
        _s, _t, trace = saturate_app(program, list(units), cfg, SUMMARIES)
        findings = extract_findings(trace.results)
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
    merged.join_store(alone_v)
    assert together.canonical_text() == merged.canonical_text()


def test_saturated_store_identical_across_orderings():
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    units = [_unit("A", "writeOne"), _unit("B", "taintIt"),
             _unit("C", "leakIt")]
    texts = set()
    for perm in itertools.permutations(units):
        store, taint, _ = saturate_app(program, list(perm), cfg, SUMMARIES)
        texts.add(store.canonical_text() + "|" + taint.canonical_text())
    assert len(texts) == 1


def test_coverage_superset_of_single_entry_point():
    program = parse_program(SHARED_FIELD)
    cfg = AnalysisConfig(k=1)
    both = _unit("U", "taintIt", "leakIt")
    _s, _t, trace = saturate_app(program, [both], cfg, SUMMARIES)
    all_findings = {(f.category, f.sink_state.pos) for f in
                    extract_findings(trace.results)}
    solo = _unit("U", "leakIt")
    _s2, _t2, solo_trace = saturate_app(program, [solo], cfg, SUMMARIES)
    solo_findings = {(f.category, f.sink_state.pos) for f in
                     extract_findings(solo_trace.results)}
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


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
def test_entry_points_sharing_a_method_name_in_one_unit_both_report(mode):
    program = parse_program(SAME_NAME)
    summaries = parse_summaries("""
summary test/Api getSecret role=source:Location ret=any-string perms=
summary test/Api getDeviceId role=source:DeviceID ret=any-string perms=
summary test/Api send role=sink:network ret=void perms=INTERNET
""")
    refs = (MethodRef("app/A", "onClick", ()),
            MethodRef("app/B", "onClick", ()))
    unit = Unit("U", "activity", tuple(EntryPoint(r, "ui-handler", "layout")
                                       for r in refs))
    _s, _t, trace = saturate_app(program, [unit],
                                 AnalysisConfig(mode=mode, k=1), summaries)
    assert [r.entry for r in trace.results] == list(refs)
    flows = {(f.category, f.sink_state.pos.method.class_name)
             for f in extract_findings(trace.results)}
    assert flows == {(TaintVal.LOCATION, "app/A"),
                     (TaintVal.DEVICE_ID, "app/B")}


def test_empty_units_rejected():
    program = parse_program(SHARED_FIELD)
    with pytest.raises(EmptyUnit):
        saturate_app(program, [], AnalysisConfig(k=1), SUMMARIES)


def _drop_one_effect(monkeypatch) -> list:
    """Make saturation's fixpoint run lose one entry of its effects table;
    the returned list gets the dropped key."""
    analyze, dropped = reach.analyze, []

    def dropping(*args, **kwargs):
        result = analyze(*args, **kwargs)
        if result.effects is not None and not dropped:
            key = next(iter(result.effects))
            del result.effects[key]
            dropped.append(key)
        return result

    monkeypatch.setattr(reach, "analyze", dropping)
    return dropped


def test_reporting_run_missing_an_effect_is_an_internal_error(monkeypatch):
    program = parse_program(SHARED_FIELD)
    dropped = _drop_one_effect(monkeypatch)
    with pytest.raises(RuntimeError) as err:
        saturate_app(program, [_unit("U", "writeOne")], AnalysisConfig(k=1),
                     SUMMARIES)
    state, hyp = dropped[0]
    assert f"reached {state.describe()} under top {hyp}," in str(err.value)


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
def test_reporting_run_missing_an_effect_exits_four_without_reports(
        bundles_dir, tmp_path, monkeypatch, capsys, mode):
    dropped = _drop_one_effect(monkeypatch)
    out = tmp_path / "out"
    code = cli.main(["--bundle", str(bundles_dir / "photoquote_exception"),
                     "--out", str(out), "--mode", mode])
    assert code == cli.EXIT_INTERNAL
    assert not out.exists()
    key = dropped[0]
    state = key if mode == reach.FINITE else key[0]
    err = capsys.readouterr().err
    assert err.startswith("pdcfa: internal error: RuntimeError: ")
    assert f"reached {state.describe()}" in err


# -- the app-wide fixpoint run and the reporting runs that replay it --------


def _sweep_reference(program, units, cfg, summaries) -> tuple:
    """The store pair of a schedule: run every entry point in declared
    order, each from the pair the previous run left, until a sweep of them
    grows nothing."""
    store, taint = Store(), TaintStore()
    shared = reach.FiniteShared() if cfg.mode == reach.FINITE else None

    def size():
        return (store.fingerprint(), taint.fingerprint(),
                shared.version if shared is not None else 0)

    while True:
        before = size()
        for unit in units:
            for ep in unit.entry_points:
                machine.seed_entry_bindings(program, ep.method_ref, store,
                                            taint)
                result = reach.analyze(program, ep.method_ref, store, taint,
                                       cfg, summaries, shared)
                store, taint = result.final_store, result.final_taint
        if size() == before:
            return store, taint


def _result_parts(result) -> tuple:
    dsg = result.dsg
    return (list(dsg.nodes), list(dsg.edges), list(dsg.epsilon_summaries),
            list(result.visit_counts.items()), list(result.terminals.items()),
            result.applications)


def _check_saturation(monkeypatch, program, units, cfg, summaries):
    calls = []  # (bound arguments, result) of every engine run
    analyze = reach.analyze

    def recorded(*args, **kwargs):
        result = analyze(*args, **kwargs)
        bound = inspect.signature(analyze).bind(*args, **kwargs)
        calls.append((bound.arguments, result))
        return result

    monkeypatch.setattr(reach, "analyze", recorded)
    store, taint, trace = saturate_app(program, units, cfg, summaries)
    monkeypatch.setattr(reach, "analyze", analyze)
    assert trace.complete

    (_fix_args, fixpoint), reporting = calls[0], calls[1:]
    ref_store, ref_taint = _sweep_reference(program, units, cfg, summaries)
    assert fixpoint.final_store.canonical_text() == ref_store.canonical_text()
    assert fixpoint.final_taint.canonical_text() == ref_taint.canonical_text()

    saturated = (fixpoint.final_store.fingerprint(),
                 fixpoint.final_taint.fingerprint())
    assert (store.fingerprint(), taint.fingerprint()) == saturated
    assert len(reporting) == sum(len(u.entry_points) for u in units)
    for args, result in reporting:
        assert args["replay"] is not None
        assert (result.final_store.fingerprint(),
                result.final_taint.fingerprint()) == saturated
        plain = analyze(args["program"], args["entry"], args["init_store"],
                        args["init_taint"], args["cfg"], args["summaries"],
                        args.get("shared"))
        assert _result_parts(result) == _result_parts(plain), \
            args["entry"].sig()
    assert trace.results == [r for _a, r in reporting]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("name", SHIPPED)
def test_saturation_equals_sweeps_and_memo_equals_plain_runs(
        bundles_dir, monkeypatch, name, mode, k):
    """The fixpoint run's store pair equals the one repeated sweeps reach;
    each reporting run, which replays the fixpoint run, equals a plain run
    from the same pair; no reporting run grows the pair."""
    bundle = load_bundle(bundles_dir / name)
    units = discover_entry_points(bundle, bundle.program)
    _check_saturation(monkeypatch, bundle.program, units,
                      AnalysisConfig(mode=mode, k=k), bundle.summaries)


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
def test_saturation_equals_sweeps_on_generated_bundle(tmp_path, monkeypatch,
                                                      mode):
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))["finite-witness"]
    root = synth.generate(synth.Shape.parse(ref["shape"]),
                          ref["seed"]).write(tmp_path / "bundle")
    bundle = load_bundle(root)
    units = discover_entry_points(bundle, bundle.program)
    _check_saturation(monkeypatch, bundle.program, units,
                      AnalysisConfig(mode=mode, k=ref["k"]), bundle.summaries)


@pytest.mark.parametrize("mode", [reach.PUSHDOWN, reach.FINITE])
@pytest.mark.parametrize("name", SHIPPED)
def test_reporting_runs_step_nothing_and_share_the_saturated_pair(
        bundles_dir, monkeypatch, name, mode):
    """After the fixpoint run returns, no machine step and no expression
    evaluation runs: each reporting run reads the fixpoint run's effects and
    returns its store pair itself."""
    bundle = load_bundle(bundles_dir / name)
    units = discover_entry_points(bundle, bundle.program)
    analyze, runs, late_calls = reach.analyze, [], []

    def recorded(*args, **kwargs):
        runs.append(analyze(*args, **kwargs))
        return runs[-1]

    def counted(fname):
        fn = getattr(machine, fname)

        def wrapper(*args, **kwargs):
            if runs:
                late_calls.append(fname)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reach, "analyze", recorded)
    for fname in ("step_independent", "step_dependent", "eval_atomic"):
        monkeypatch.setattr(machine, fname, counted(fname))
    _s, _t, trace = saturate_app(bundle.program, units,
                                 AnalysisConfig(mode=mode, k=1),
                                 bundle.summaries)
    assert trace.complete and trace.results
    assert late_calls == []
    fixpoint = runs[0]
    for result in trace.results:
        assert result.final_store is fixpoint.final_store
        assert result.final_taint is fixpoint.final_taint
        assert result.effects is None
