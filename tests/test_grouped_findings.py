"""Findings and permission evidence grouped at their inputs equal the
references that deduplicate after the product (``dedup_reference``), and
the representative each group keeps is the one pinned by hand."""

from pathlib import Path

import pytest

from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, STRICT_PROGRAMS
from dedup_reference import product_findings, seen_permissions
from pdcfa.cli import load_bundle
from pdcfa.eps import EntryPoint, Unit, discover_entry_points, saturate_app
from pdcfa.ir import MethodRef, StmtPos, parse_program
from pdcfa.machine import ControlState, FramePointer
from pdcfa.permissions import collect_permissions
from pdcfa.reach import FINITE, PUSHDOWN, AnalysisConfig
from pdcfa.taint import (TaintFinding, TaintVal, TriggerContext,
                         extract_findings, parse_summaries)
from views import with_triggers

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHIPPED = sorted(p.name for p in (Path(__file__).parent / "corpus" /
                                  "bundles").iterdir()
                 if (p / "manifest.json").is_file())
FIELDS = [name for name, *_ in TaintFinding.__record_fields__]


def _fields(findings) -> list:
    return [tuple(getattr(f, name) for name in FIELDS) for f in findings]


def _assert_equal_to_references(trace) -> int:
    """Both functions return lists equal to their references', field by
    field and in the same order, segments included; returns the number of
    findings."""
    findings = extract_findings(trace)
    assert isinstance(findings, list)
    assert _fields(findings) == _fields(product_findings(trace))
    perms = collect_permissions(trace)
    assert isinstance(perms, list)
    assert perms == seen_permissions(trace)
    return len(findings)


def _saturate(program, units, mode, k, summaries):
    _store, _taint, trace = saturate_app(
        program, units, AnalysisConfig(mode=mode, k=k), summaries)
    return trace


def _every_method_an_entry(src):
    program = parse_program(src)
    refs = sorted(program.methods, key=MethodRef.sort_key)
    return program, [Unit("U", "activity", tuple(
        EntryPoint(r, "ui-handler", "layout") for r in refs))]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_bundles_equal_references(bundles_dir, name, mode, k):
    bundle = load_bundle(bundles_dir / name)
    _assert_equal_to_references(_saturate(
        bundle.program, discover_entry_points(bundle, bundle.program), mode,
        k, bundle.summaries))


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
@pytest.mark.parametrize("seed", [1, 2])
def test_synth_bundles_equal_references(tmp_path, monkeypatch, seed, mode):
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    root = synth.generate(synth.Shape.parse("2x4x3x2"), seed).write(
        tmp_path / "bundle")
    bundle = load_bundle(root)
    trace = _saturate(bundle.program,
                      discover_entry_points(bundle, bundle.program), mode, 1,
                      bundle.summaries)
    assert _assert_equal_to_references(trace) > 0


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
def test_micro_programs_with_every_method_an_entry_equal_references(mode):
    table = parse_summaries(MICRO_SUMMARIES)
    programs = {**{n: src for n, (src, *_) in MICRO_PROGRAMS.items()},
                **STRICT_PROGRAMS}
    found = 0
    for src in programs.values():
        program, units = _every_method_an_entry(src)
        found += _assert_equal_to_references(
            _saturate(program, units, mode, 1, table))
    assert found > 0


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
def test_some_triggers_kept_equal_references(bundles_dir, mode):
    """A trace that keeps every other trigger: sources are owned, and
    sinks grouped, only by the kept triggers' parts."""
    bundle = load_bundle(bundles_dir / "three_unit_relay")
    trace = _saturate(bundle.program,
                      discover_entry_points(bundle, bundle.program), mode, 1,
                      bundle.summaries)
    for kept in (trace.triggers[::2], trace.triggers[1:],
                 trace.triggers[-1:], []):
        _assert_equal_to_references(with_triggers(trace, kept))


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
def test_two_units_declaring_one_entry_equal_references(bundles_dir, mode):
    """Two units declare the uploader's entry point: their triggers share
    one root bit, and each gets its own findings."""
    bundle = load_bundle(bundles_dir / "three_unit_relay")
    units = discover_entry_points(bundle, bundle.program)
    twin = Unit("TwinUnit", "service", units[1].entry_points)
    trace = _saturate(bundle.program, [twin, *units], mode, 1,
                      bundle.summaries)
    shared = [entry for trigger, entry in trace.triggers
              if trigger.unit in ("TwinUnit", "UploaderUnit")]
    assert len(shared) == 2 and shared[0] == shared[1]
    _assert_equal_to_references(trace)
    units_found = {f.trigger.unit for f in extract_findings(trace)}
    assert units_found == {"TwinUnit", "UploaderUnit"}


# A source read under two call sites of `get`, a sink under two call sites
# of `put`, and one virtual invoke whose receiver is a LogSink or a
# NetSink, two sink summaries of different kinds at one state.
REPRESENTATIVES = """
(public class java/lang/String extends java/lang/Object () ())
(public class app/LogSink extends java/lang/Object () ())
(public class app/NetSink extends java/lang/Object () ())
(public class app/Main extends java/lang/Object ()
  ((method public get () java/lang/String (throws) (limit 2)
     (line 3)
     (assign s (invoke-static app/Geo->where () ()))
     (return s))
   (method public put (java/lang/String) void (throws) (limit 3)
     (line 7)
     (assign r (invoke-static app/Net->post (param0) (java/lang/String)))
     (return void))
   (method public run (int) void (throws) (limit 6)
     (line 11)
     (assign a (invoke-virtual get (this) ()))
     (line 12)
     (assign b (invoke-virtual get (this) ()))
     (line 13)
     (assign r (invoke-virtual put (this a) (java/lang/String)))
     (line 14)
     (assign r (invoke-virtual put (this b) (java/lang/String)))
     (line 15)
     (assign o (new app/LogSink))
     (if (lt param0 1) (goto send))
     (assign o (new app/NetSink))
     (label send)
     (line 16)
     (assign r (invoke-virtual send (o b) (java/lang/String)))
     (return void))))
"""

REPRESENTATIVE_SUMMARIES = """
summary app/Geo where role=source:Location ret=any-string perms=ACCESS_FINE_LOCATION
summary app/Net post role=sink:network ret=void perms=INTERNET
summary app/LogSink send role=sink:log ret=void perms=READ_LOGS
summary app/NetSink send role=sink:network ret=void perms=INTERNET,ACCESS_NETWORK_STATE
"""


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
def test_each_group_keeps_its_pinned_representative(mode):
    program = parse_program(REPRESENTATIVES)
    run_ref = MethodRef("app/Main", "run", ("int",))
    get_ref = MethodRef("app/Main", "get", ())
    put_ref = MethodRef("app/Main", "put", ("java/lang/String",))
    unit = Unit("U", "activity", (EntryPoint(run_ref, "ui-handler",
                                             "layout"),))
    trace = _saturate(program, [unit], mode, 1,
                      parse_summaries(REPRESENTATIVE_SUMMARIES))

    def state(ref, index, call_site=None):
        context = () if call_site is None else (StmtPos(run_ref, call_site),)
        return ControlState(StmtPos(ref, index), FramePointer(ref, context))

    # run's body: `line` markers and labels are statements, so the invokes
    # of `get` sit at 1 and 3, those of `put` at 5 and 7, the send at 14
    sources = {s for app in trace.fixpoint.applications
               if app.source_categories for s in [app.state]}
    assert sources == {state(get_ref, 1, 1), state(get_ref, 1, 3)}
    sinks = {(app.state, app.summary_key)
             for app in trace.fixpoint.applications if app.sink_hits}
    assert sinks == {(state(put_ref, 1, 5), "app/Net.post"),
                     (state(put_ref, 1, 7), "app/Net.post"),
                     (state(run_ref, 14), "app/LogSink.send"),
                     (state(run_ref, 14), "app/NetSink.send")}

    trigger = TriggerContext("U", "run")
    source = dict(category=TaintVal.LOCATION,
                  source_state=state(get_ref, 1, 1), source_line=3,
                  trigger=trigger)
    expected = [
        dict(source, sink_state=state(put_ref, 1, 5), sink_kind="network",
             sink_line=7, sink_permissions=("INTERNET",)),
        dict(source, sink_state=state(run_ref, 14), sink_kind="log",
             sink_line=16, sink_permissions=("READ_LOGS",)),
    ]
    findings = extract_findings(trace)
    assert [{name: getattr(f, name) for name in FIELDS if name != "segments"}
            for f in findings] == expected
    for f in findings:
        assert f.witness[0] == f.source_state or f.witness[0] == \
            trace.fixpoint.masks.roots[run_ref][0]
        assert f.witness[-1] == f.sink_state
    _assert_equal_to_references(trace)

    assert [(p, s) for p, s, _line in collect_permissions(trace)] == [
        ("ACCESS_FINE_LOCATION", state(get_ref, 1, 1)),
        ("ACCESS_FINE_LOCATION", state(get_ref, 1, 3)),
        ("ACCESS_NETWORK_STATE", state(run_ref, 14)),
        ("INTERNET", state(put_ref, 1, 5)),
        ("INTERNET", state(put_ref, 1, 7)),
        ("INTERNET", state(run_ref, 14)),
        ("READ_LOGS", state(run_ref, 14)),
    ]
