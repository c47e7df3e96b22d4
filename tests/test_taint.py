"""Taint propagation, summaries, and finding extraction."""

import json
from pathlib import Path

import pytest

from corpus_micro import (MICRO_PROGRAMS, MICRO_SUMMARIES, PRELUDE, RUN,
                          STRICT_PROGRAMS)
import pdcfa
from pdcfa.cli import load_bundle
from pdcfa.concrete import run_concrete
from pdcfa.eps import EntryPoint, Unit, discover_entry_points, saturate_app
from pdcfa.ir import MethodRef, parse_program
from pdcfa.machine import ANY_INT, ANY_STRING, NULL, VOID
from pdcfa.reach import (
    FINITE,
    PUSHDOWN,
    AnalysisConfig,
    analyze,
)
from pdcfa.taint import (
    ApiSummary,
    SummaryFormatError,
    TaintVal,
    _segment,
    _witness,
    apply_summary,
    extract_findings,
    parse_summaries,
)
from soundness import analyze_seeded
from stores import all_categories
from views import direct_trace, replay_stack_actions, views, witness_steps

TABLE = parse_summaries(MICRO_SUMMARIES)


def test_summary_format_round_trip():
    table = parse_summaries("""
# comment
summary android/media/ExifInterface getLatLong role=source:Location ret=any-string perms=
summary a/B send role=sink:network:Location,Sms ret=void perms=INTERNET,X
summary a/* mix role=propagate ret=any-string perms=
summary c/D quiet role=neutral ret=null perms=
""")
    assert len(table.records) == 4
    sink = table.records[1]
    assert sink.sink_kind == "network"
    assert set(sink.sink_categories) == {TaintVal.LOCATION, TaintVal.SMS}
    assert sink.permissions == ("INTERNET", "X")
    assert table.match(["a/Whatever"], "mix") is table.records[2]
    assert table.match(["z/Z"], "mix") is None


def test_summary_format_errors():
    with pytest.raises(SummaryFormatError):
        parse_summaries("summary a b role=source")  # missing categories
    with pytest.raises(SummaryFormatError):
        parse_summaries("summary a b role=sink:bogus ret=void perms=")
    with pytest.raises(SummaryFormatError):
        parse_summaries("summary a b role=source:NotACategory ret=void perms=")
    # a category list that names none: a source tainting nothing, a sink
    # reporting nothing; and a field given twice
    for fields, error in (
            ("role=source:", "empty category list"),
            ("role=source:,", "empty category list"),
            ("role=sink:log:", "empty category list"),
            ("role=sink:network:, ret=void", "empty category list"),
            ("role=neutral role=sink:log", "repeated field 'role'"),
            ("role=neutral ret=void ret=null", "repeated field 'ret'"),
            ("role=neutral perms=A perms=", "repeated field 'perms'")):
        with pytest.raises(SummaryFormatError) as exc:
            parse_summaries(f"# header\nsummary a/B m {fields}\n")
        assert str(exc.value) == f"line 2: {error}", fields


def test_the_shipped_default_table_loads():
    """``pdcfa.load_summaries`` reads the default table shipped as package
    data: 15 records, every role present, each method summarised once."""
    table = pdcfa.load_summaries(
        Path(pdcfa.__file__).parent / "data" / "default.summaries")
    roles = [r.role for r in table.records]
    assert len(roles) == 15
    assert {role: roles.count(role) for role in set(roles)} == {
        "source": 7, "sink": 5, "propagate": 2, "neutral": 1}
    keys = [(r.class_pattern, r.method_name) for r in table.records]
    assert len(set(keys)) == len(keys)
    assert table.match(["android/util/Log"], "d").sink_kind == "log"


@pytest.mark.parametrize("role", ["source:Location,Bogus",
                                  "sink:network:Bogus"])
def test_an_unknown_category_names_its_line(role):
    with pytest.raises(SummaryFormatError) as exc:
        parse_summaries(f"# header\n\nsummary a b role={role} ret=void\n")
    assert str(exc.value) == "line 3: unknown taint category 'Bogus'"


def test_a_record_ends_only_at_a_newline():
    """A form feed, NEL or line separator inside a record separates its
    fields, as any whitespace does, and starts no new line."""
    table = parse_summaries("summary\x0ca/B\x85get role=source:Location"
                            "\u2028ret=any-string\n"
                            "summary c/D\x0csend role=sink:network ret=void")
    assert [(r.class_pattern, r.method_name, r.role)
            for r in table.records] == [("a/B", "get", "source"),
                                        ("c/D", "send", "sink")]
    with pytest.raises(SummaryFormatError,
                       match=r"^line 2: unknown role 'bogus'$"):
        parse_summaries("# a\x0cb\u2028c\nsummary a b role=bogus ret=void")


def test_apply_summary_source_introduces_taint():
    rec = ApiSummary("a/A", "src", "source",
                     source_categories=(TaintVal.LOCATION,),
                     return_abstraction="any-string")
    ret_val, ret_taint, hits = apply_summary(rec, [frozenset()], [frozenset()])
    assert ret_taint == {TaintVal.LOCATION}
    assert ret_val == {ANY_STRING}
    assert hits == frozenset()


def test_apply_summary_sink_reports_flowing_categories():
    rec = ApiSummary("a/A", "send", "sink", sink_kind="network",
                     return_abstraction="void")
    _rv, rt, hits = apply_summary(
        rec, [frozenset()], [frozenset({TaintVal.LOCATION})])
    assert hits == {(TaintVal.LOCATION, "network")}
    assert rt == frozenset()


def test_apply_summary_sink_filters_categories():
    rec = ApiSummary("a/A", "send", "sink", sink_kind="network",
                     sink_categories=(TaintVal.SMS,),
                     return_abstraction="void")
    _rv, _rt, hits = apply_summary(
        rec, [frozenset()], [frozenset({TaintVal.LOCATION, TaintVal.SMS})])
    assert hits == {(TaintVal.SMS, "network")}


def test_apply_summary_propagate_unions_arg_taints():
    rec = ApiSummary("a/A", "mix", "propagate",
                     return_abstraction="any-string")
    _rv, rt, _h = apply_summary(
        rec, [frozenset(), frozenset()],
        [frozenset({TaintVal.SMS}), frozenset()])
    assert rt == {TaintVal.SMS}


def test_apply_summary_neutral_and_return_abstractions():
    for ret, expected in (("any-int", {ANY_INT}), ("null", {NULL}),
                          ("void", {VOID})):
        rec = ApiSummary("a/A", "f", "neutral", return_abstraction=ret)
        rv, rt, hits = apply_summary(rec, [], [])
        assert rv == expected
        assert rt == frozenset() and hits == frozenset()


# -- extraction ---------------------------------------------------------------


def test_no_sources_means_no_findings():
    src = PRELUDE + """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign s (invoke-static test/Api->log (this) (java/lang/Object)))
     (return 0))))
"""
    res = analyze_seeded(parse_program(src), RUN, AnalysisConfig(k=1), TABLE)
    assert extract_findings(direct_trace(res)) == []


def test_finding_for_direct_flow():
    src = PRELUDE + """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (line 5)
     (assign s (invoke-static test/Api->getSecret () ()))
     (line 6)
     (assign q (invoke-static test/Api->send (s) (java/lang/String)))
     (return 0))))
"""
    res = analyze_seeded(parse_program(src), RUN, AnalysisConfig(k=1), TABLE)
    findings = extract_findings(direct_trace(res))
    assert len(findings) == 1
    f = findings[0]
    assert f.category == TaintVal.LOCATION
    assert f.sink_kind == "network"
    assert f.source_line == 5 and f.sink_line == 6
    assert f.witness[0] in (res.masks.roots[RUN][0], f.source_state)
    assert f.witness[-1] == f.sink_state


def test_taint_through_catch_of_tainted_exception_register():
    """A tainted register holding the thrown object carries its taint into
    the handler's exn register."""
    src = PRELUDE + """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 6)
     (assign s (invoke-static test/Api->getSecret () ()))
     (assign b (new Box))
     (assign e0 (new Fault))
     (field-put b ref e0)
     (field-put b ref s)
     (field-get x b ref)
     (push-handler Fault c)
     (throw x)
     (label c)
     (assign q (invoke-static test/Api->log (exn) (java/lang/Throwable)))
     (return 0))))
"""
    res = analyze_seeded(parse_program(src), RUN, AnalysisConfig(k=1), TABLE)
    findings = extract_findings(direct_trace(res))
    assert any(f.category == TaintVal.LOCATION and f.sink_kind == "log"
               for f in findings)


def test_no_spontaneous_taint_on_corpus():
    """Categories in the final taint store must come from applied sources."""
    for name, (src, _o, _r) in sorted(MICRO_PROGRAMS.items()):
        program = parse_program(src)
        res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
        applied = set()
        for app in res.applications:
            applied.update(app.source_categories)
        assert all_categories(res.final_taint) <= applied, name


def test_taint_monotone_along_saturating_reruns():
    src, _o, _r = MICRO_PROGRAMS["taint_chain"]
    program = parse_program(src)
    res1 = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    res2 = analyze(program, (RUN,), res1.final_store, res1.final_taint,
                   AnalysisConfig(k=1), TABLE)
    before = dict(res1.final_taint.items())
    after = dict(res2.final_taint.items())
    for addr, taints in before.items():
        assert taints <= after.get(addr, frozenset())


def test_explicit_flow_completeness_against_oracle():
    """Every concrete sink hit (explicit flows through assignments, fields,
    calls, returns, and caught exceptions) appears among the findings."""
    src, _o, _r = MICRO_PROGRAMS["taint_chain"]
    program = parse_program(src)
    crun = run_concrete(program, RUN, fuel=5000, summaries=TABLE)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    findings = extract_findings(direct_trace(res))
    for app in crun.sink_hits:
        for cat, kind in app.sink_hits:
            assert any(f.category == cat and f.sink_kind == kind
                       and f.sink_state.pos == app.pos
                       for f in findings), (cat, kind)


def test_witnesses_are_stack_balanced():
    src, _o, _r = MICRO_PROGRAMS["taint_chain"]
    program = parse_program(src)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    findings = extract_findings(direct_trace(res))
    assert findings
    for f in findings:
        assert replay_stack_actions(witness_steps(f))
        # the source precedes the sink on the witness
        src_i = f.witness.index(f.source_state)
        snk_i = len(f.witness) - 1 - f.witness[::-1].index(f.sink_state)
        assert src_i <= snk_i


# -- witness segments ---------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"
SHIPPED = sorted(p.name for p in (Path(__file__).parent / "corpus" /
                                  "bundles").iterdir()
                 if (p / "manifest.json").is_file())


def _saturated(bundle, mode, k):
    units = discover_entry_points(bundle, bundle.program)
    _store, _taint, trace = saturate_app(
        bundle.program, units, AnalysisConfig(mode=mode, k=k),
        bundle.summaries)
    return trace


def _check_witnesses_against_fresh_searches(trace) -> int:
    """Each finding's witness is what a search for that finding alone, with
    no tree or segment shared with any other finding, gives; a second
    extraction gives the same findings. The source's owner is the first
    trigger whose view holds the source. Pushdown witnesses replay as
    stack evolutions; finite ones are plain graph paths, which need not.
    Returns the number of findings."""
    findings = extract_findings(trace)
    assert findings == extract_findings(trace)
    parts = views(trace)
    roots = [(v.root, v.bit) for v in parts]
    for f in findings:
        owner = next(i for i, v in enumerate(parts)
                     for app in v.source_applications()
                     if app.state == f.source_state
                     and f.category in app.source_categories)
        sink = next(i for i, v in enumerate(parts) if v.trigger == f.trigger
                    for app in v.sink_applications()
                    if app.state == f.sink_state
                    and (f.category, f.sink_kind) in app.sink_hits)
        segments = _witness(trace.fixpoint, roots, owner, f.source_state,
                            sink, f.sink_state, {}, {})
        assert f.segments == segments
        assert f.witness == sum((states for states, _ in segments), ())
        assert witness_steps(f) == sum((steps for _, steps in segments), ())
        if trace.fixpoint.mode == PUSHDOWN:
            assert replay_stack_actions(witness_steps(f))
    return len(findings)


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
@pytest.mark.parametrize("name", SHIPPED)
def test_witnesses_equal_fresh_searches_on_shipped_bundles(bundles_dir, name,
                                                           mode):
    bundle = load_bundle(bundles_dir / name)
    _check_witnesses_against_fresh_searches(_saturated(bundle, mode, 1))


def test_witnesses_equal_fresh_searches_on_finite_witness_bundle(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))["finite-witness"]
    root = synth.generate(synth.Shape.parse(ref["shape"]),
                          ref["seed"]).write(tmp_path / "bundle")
    trace = _saturated(load_bundle(root), ref["mode"], ref["k"])
    assert _check_witnesses_against_fresh_searches(trace) > 0


def test_segments_are_kept_per_bit():
    """One ``trees`` dict and one segment memo shared by every entry
    point's part of a pushdown fixpoint run give each part its own segment:
    with every method of a micro program an entry point, the paths between
    two states in several parts differ across them."""
    program = parse_program(STRICT_PROGRAMS["two_handlers"])
    refs = sorted((m for m in program.methods if m.class_name == "Main"),
                  key=MethodRef.sort_key)
    unit = Unit("U", "activity", tuple(EntryPoint(r, "ui-handler", "layout")
                                       for r in refs))
    _s, _t, trace = saturate_app(program, [unit], AnalysisConfig(k=0), TABLE)
    run, parts = trace.fixpoint, views(trace)
    trees: dict = {}
    memo: dict = {}
    segments: dict = {}  # (from, to) -> the segments parts give for it
    for view in parts:
        nodes = sorted(view.dsg.nodes, key=lambda s: s.sort_key())
        for frm in nodes:
            for to in nodes:
                seg = _segment(run, view.bit, frm, to, trees, memo)
                assert seg == _segment(run, view.bit, frm, to, {}, {})
                segments.setdefault((frm, to), set()).add(seg)
    assert any(len(segs) > 1 for segs in segments.values())
