"""Report emission: predicates, documents, schemas, and DOT export."""

import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, RUN
from pdcfa import eps, report
from pdcfa.cli import load_bundle, main
from pdcfa.ir import parse_program
from pdcfa.permissions import build_permission_report, collect_permissions
from pdcfa.reach import AnalysisConfig
from pdcfa.report import (
    PredicateError,
    conjoin,
    emit_flow_report,
    emit_heat_map,
    emit_permission_report,
    export_graph,
    parse_predicate,
    to_json_bytes,
)
from pdcfa.taint import TaintFinding, extract_findings, parse_summaries
from schemas import validate_document
from soundness import analyze_seeded
from views import direct_trace, replay_stack_actions, witness_steps

TABLE = parse_summaries(MICRO_SUMMARIES)
BENCH = Path(__file__).resolve().parent.parent / "bench"

META = {"toolVersion": "test", "config": {}, "inputs": {}}

FLOWY = """
(public class java/lang/Throwable extends java/lang/Object () ())
(public class java/lang/String extends java/lang/Object () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 4)
     (line 5)
     (assign s (invoke-static test/Api->getSecret () ()))
     (line 6)
     (assign q (invoke-static test/Api->send (s) (java/lang/String)))
     (line 7)
     (assign w (invoke-static test/Api->log (s) (java/lang/String)))
     (return 0))))
"""


def _findings_and_result():
    program = parse_program(FLOWY)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    return program, res, extract_findings(direct_trace(res))


# -- predicates ---------------------------------------------------------------


def test_predicate_parse_and_text():
    p = parse_predicate("taintHas(Location) and classIs(Main*)")
    assert len(p.atoms) == 2
    assert p.text() == "taintHas(Location) and classIs(Main*)"


def test_predicate_errors():
    with pytest.raises(PredicateError):
        parse_predicate("nonsense(1)")
    with pytest.raises(PredicateError):
        parse_predicate("lineIn(9, 2)")
    with pytest.raises(PredicateError):
        parse_predicate("taintHas(NotACat)")
    with pytest.raises(PredicateError):
        parse_predicate("")


def test_predicate_arguments_may_hold_the_word_and():
    """Only an ``and`` between two atoms joins them."""
    p = parse_predicate("classIs(com/and/Foo) and methodIs(and)")
    assert [(a.name, a.args) for a in p.atoms] == [
        ("classIs", ("com/and/Foo",)), ("methodIs", ("and",))]
    assert p.text() == "classIs(com/and/Foo) and methodIs(and)"
    assert parse_predicate(p.text()) == p
    assert parse_predicate("methodIs(and)").atoms[0].args == ("and",)
    for text in ("methodIs(x) methodIs(y)", "methodIs(x) and",
                 "and methodIs(x)", "methodIs(x) and and methodIs(y)"):
        with pytest.raises(PredicateError, match="malformed predicate atom"):
            parse_predicate(text)


def test_predicate_filters_findings():
    program, res, findings = _findings_and_result()
    assert len(findings) == 2  # network and log sinks
    by_kind = parse_predicate("sinkKindIs(network)")
    doc = emit_flow_report(findings, by_kind, program, META)
    assert doc["findingCount"] == 1
    assert doc["findings"][0]["sink"]["kind"] == "network"
    by_cat = parse_predicate("taintHas(Location)")
    assert emit_flow_report(findings, by_cat, program, META)["findingCount"] == 2
    by_line = parse_predicate("lineIn(6, 6)")
    assert emit_flow_report(findings, by_line, program, META)["findingCount"] == 1
    neither = parse_predicate("unitIs(NoSuchUnit)")
    assert emit_flow_report(findings, neither, program, META)["findingCount"] == 0


def test_filter_soundness():
    program, res, findings = _findings_and_result()
    pred = conjoin([parse_predicate("sinkKindIs(log)")])
    kept = emit_flow_report(findings, pred, program, META)["findings"]
    assert all(f["sink"]["kind"] == "log" for f in kept)
    dropped = [f for f in findings if not pred.matches(f)]
    assert all(f.sink_kind != "log" for f in dropped)


# -- documents ----------------------------------------------------------------


def test_empty_flow_report_is_schema_valid():
    program = parse_program(MICRO_PROGRAMS["ret_const"][0])
    doc = emit_flow_report([], None, program, META)
    assert doc["findingCount"] == 0
    assert doc["findings"] == [] and doc["verdictHints"] == []
    validate_document(doc, "flow_report")


def test_flow_report_schema_and_hints():
    program, res, findings = _findings_and_result()
    doc = emit_flow_report(findings, None, program, META)
    validate_document(json.loads(to_json_bytes(doc)), "flow_report")
    assert doc["findingCount"] == 2
    assert any("tainted source-to-sink" in h for h in doc["verdictHints"])
    # hints never speak beyond the findings present
    assert all("malicious" not in h.lower() for h in doc["verdictHints"])


def test_permission_report_schema():
    program, res, _f = _findings_and_result()
    report = build_permission_report({"SEND_SMS"},
                                     collect_permissions(direct_trace(res)))
    doc = emit_permission_report(report, program, META)
    validate_document(doc, "permissions_report")
    assert doc["overPrivileged"] == ["SEND_SMS"]
    assert doc["missing"] == ["INTERNET"]


def test_heat_map_straight_line_counts_once():
    src, _o, _r = MICRO_PROGRAMS["arith_add"]
    program = parse_program(src)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    doc = emit_heat_map(direct_trace(res), program, META)
    validate_document(doc, "heatmap")
    counts = {(s["method"], s["index"]): s["visits"]
              for s in doc["statements"]}
    assert all(v == 1 for v in counts.values())


def test_heat_map_counts_the_frames_topping_a_node():
    """A node's visits are the frames that may top its stack, or 1: at k=0
    both calls of ``inc`` return through one node under two call frames,
    at k=1 through one node per call site, so ``inc``'s return counts 2
    either way; an invoke counts its call and its move slot."""
    src, _o, _r = MICRO_PROGRAMS["call_two_sites"]
    program = parse_program(src)
    docs = []
    for k in (0, 1):
        res = analyze_seeded(program, RUN, AnalysisConfig(k=k), TABLE)
        returns = [s for s in res.dsg.nodes if s.pos.method.method_name
                   == "inc"]
        assert len(returns) == 2 - (k == 0)
        docs.append(emit_heat_map(direct_trace(res), program, META))
    assert docs[0] == docs[1]
    assert [(s["method"], s["index"], s["visits"])
            for s in docs[0]["statements"]] == [
        ("inc", 0, 2), ("run", 0, 2), ("run", 1, 2), ("run", 2, 1)]


def test_heat_map_excludes_unreachable_method():
    src = MICRO_PROGRAMS["arith_add"][0].replace(
        "(return c))", """(return c))
   (method public unreached () int (throws) (limit 1)
     (return 1))""")
    program = parse_program(src)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    doc = emit_heat_map(direct_trace(res), program, META)
    assert all(m["method"] != "unreached" for m in doc["methods"])


def test_heat_map_top_n(monkeypatch):
    src, _o, _r = MICRO_PROGRAMS["call_depth4"]
    program = parse_program(src)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    monkeypatch.setattr(report, "_TOP_N", 3)
    doc = emit_heat_map(direct_trace(res), program, META)
    assert len(doc["statements"]) == 3


# -- graph export ---------------------------------------------------------------


def test_graph_plain_when_no_findings():
    src, _o, _r = MICRO_PROGRAMS["arith_add"]
    program = parse_program(src)
    res = analyze_seeded(program, RUN, AnalysisConfig(k=1), TABLE)
    dot = export_graph(res, [], program)
    assert dot.startswith("digraph reachable_states {")
    assert 'witness="1"' not in dot
    assert dot.count("[label=") >= len(res.dsg.nodes)


def test_graph_node_count_matches():
    program, res, findings = _findings_and_result()
    dot = export_graph(res, findings, program)
    node_lines = [l for l in dot.splitlines()
                  if re.match(r"  n\d+ \[label=", l)]
    assert len(node_lines) == len(res.dsg.nodes)


def test_graph_highlights_exactly_witness_edges():
    program, res, findings = _findings_and_result()
    dot = export_graph(res, findings, program)
    highlighted = [l for l in dot.splitlines() if 'witness="1"' in l]
    expected = set()
    for f in findings:
        for s in witness_steps(f):
            expected.add((s.src, s.kind, s.frame, s.dst))
    assert len(highlighted) >= 1
    # every witness step of every finding replays as a legal stack action
    for f in findings:
        assert replay_stack_actions(witness_steps(f))
    # highlighted edge count matches the deduplicated witness edges (plus
    # dashed summary shortcuts, none in this straight-line program)
    assert len(highlighted) == len(expected)


def test_graph_marks_sources_and_sinks():
    program, res, findings = _findings_and_result()
    dot = export_graph(res, findings, program)
    assert "palegreen" in dot  # source style
    assert "lightcoral" in dot or "orange" in dot  # sink style
    assert "push" in dot or "ε" in dot


def test_json_bytes_deterministic():
    program, res, findings = _findings_and_result()
    doc = emit_flow_report(findings, None, program, META)
    assert to_json_bytes(doc) == to_json_bytes(
        emit_flow_report(findings, None, program, META))


def test_findings_share_one_trigger_and_one_sink_dict():
    program, res, findings = _findings_and_result()
    send, log = sorted(findings, key=lambda f: f.sink_line)
    assert send.trigger == log.trigger and send.sink_state != log.sink_state
    fields = {name: getattr(send, name)
              for name in TaintFinding.__match_args__}
    # a copy of ``send`` with another source line: same trigger, same sink
    again = TaintFinding(**fields | {"source_line": send.source_line + 1})
    # and one at the same sink state with another kind: its own sink dict
    relabelled = TaintFinding(**fields | {"sink_kind": "relabelled"})
    doc = emit_flow_report([send, log, again, relabelled], None, program,
                           META)
    first, second, third, fourth = doc["findings"]
    assert fourth["sink"]["kind"] == "relabelled"
    assert first["sink"]["kind"] == send.sink_kind != "relabelled"
    assert first["trigger"] is second["trigger"] is third["trigger"]
    assert first["trigger"] == {"unit": send.trigger.unit,
                                "entryPoint": send.trigger.entry_point}
    assert first["sink"] is third["sink"]
    assert first["sink"] is not second["sink"]
    assert first["sink"] == {**first["source"], "line": send.sink_line,
                             "kind": send.sink_kind,
                             "permissions": sorted(send.sink_permissions)}


# -- the JSON writer ----------------------------------------------------------


def _stdlib_json_bytes(doc) -> bytes:
    """``doc`` as ``json.dumps`` writes it, a flow witness as the list of its
    refs."""
    def witness(o):
        if type(o) is not report._Witness:
            raise TypeError(f"{type(o).__name__} is not JSON serializable")
        return list(o)

    return (json.dumps(doc, indent=2, sort_keys=True, default=witness)
            + "\n").encode("utf-8")


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10**60, max_value=10**60) | _FLOATS
            | st.text() | st.text(st.characters(max_codepoint=0x1f)))
_KEYS = st.text() | st.text(st.characters(min_codepoint=0x80))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=25)
# dicts keyed by one non-str scalar type, which json writes as strings
_SCALAR_KEYED = st.one_of(
    *(st.dictionaries(keys, _SCALARS, min_size=1, max_size=4)
      for keys in (st.integers(), _FLOATS, st.booleans(), st.none())))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_DOCS)
def test_json_writer_matches_stdlib_bytes(doc):
    assert to_json_bytes(doc) == _stdlib_json_bytes(doc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_SCALAR_KEYED)
def test_json_writer_matches_stdlib_on_scalar_keys(doc):
    assert to_json_bytes(doc) == _stdlib_json_bytes(doc)


class _DigestSink:
    """A binary file that keeps only the SHA-256 and size of its bytes."""

    def __init__(self):
        self.digest, self.size = hashlib.sha256(), 0

    def write(self, data: bytes):
        self.digest.update(data)
        self.size += len(data)


def test_json_writer_holds_no_whole_text_of_a_large_report(tmp_path,
                                                           monkeypatch):
    """Writing the finite-witness bundle's flow report (about 490 KB, its
    witnesses' memoised texts long strings) to a file allocates, at its
    peak, less than the document's size: the writer spills by size, not
    by a count of strings, and writes the same bytes."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))["finite-witness"]
    bundle = load_bundle(synth.generate(synth.Shape.parse(ref["shape"]),
                                        ref["seed"]).write(tmp_path / "b"))
    units = eps.discover_entry_points(bundle, bundle.program)
    _s, _t, trace = eps.saturate_app(
        bundle.program, units,
        AnalysisConfig(mode=ref["mode"], k=ref["k"]), bundle.summaries)
    doc = emit_flow_report(extract_findings(trace), None, bundle.program,
                           META)
    sink = _DigestSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        to_json_bytes(doc, sink)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    text = to_json_bytes(doc)
    assert sink.digest.digest() == hashlib.sha256(text).digest()
    assert sink.size == len(text) > 400_000
    assert peak < len(text), (peak, len(text))


@st.composite
def _aliased_docs(draw):
    """A document in which one dict or list, and a dict holding it, each
    sit at several places and depths: the same object, not a copy."""
    shared = draw(st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=4)
                  | st.dictionaries(_KEYS, _DOCS, min_size=1, max_size=3)
                  | st.lists(_DOCS, min_size=1, max_size=3))
    holder = draw(st.dictionaries(
        _KEYS, st.just(shared) | _SCALARS, min_size=1, max_size=4))
    return draw(st.recursive(
        st.just(shared) | st.just(holder) | _SCALARS,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(_KEYS, inner, max_size=4)),
        max_leaves=25))


_REF = {"class": "A", "line": 3}


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_aliased_docs())
@example({"a": _REF, "b": [_REF, {"c": _REF}, _REF], "d": {"e": _REF},
          "f": _REF})
def test_json_writer_matches_stdlib_on_shared_objects(doc):
    assert to_json_bytes(doc) == _stdlib_json_bytes(doc)


def test_json_writer_memo_does_not_outlive_a_call():
    ref = {"class": "A", "line": 3}
    doc = {"source": ref, "witness": [ref, ref], "sink": {"at": ref}}
    first = to_json_bytes(doc)
    ref["line"] = 4
    second = to_json_bytes(doc)
    assert second != first
    assert second == _stdlib_json_bytes(doc)
    assert first == to_json_bytes(json.loads(first))


@pytest.mark.parametrize("doc", [
    {"a": {1, 2}},
    [object()],
    {("a", 1): 2},
    {"a": 1, 2: "b"},  # keys json.dumps cannot sort
    {b"bytes": 1},
])
def test_json_writer_rejects_what_stdlib_rejects(doc):
    with pytest.raises(TypeError):
        _stdlib_json_bytes(doc)
    with pytest.raises(TypeError):
        to_json_bytes(doc)


def test_json_writer_matches_stdlib_on_every_shipped_report(
        bundles_dir, tmp_path, monkeypatch):
    docs = []
    writer = report.to_json_bytes

    def recording(doc, *args):
        docs.append(doc)
        return writer(doc, *args)

    monkeypatch.setattr(report, "to_json_bytes", recording)
    for bundle in sorted(p.name for p in bundles_dir.iterdir()):
        for mode in ("pushdown", "finite"):
            for k in ("0", "1", "2"):
                main(["--bundle", str(bundles_dir / bundle), "--mode", mode,
                      "--k", k, "--out", str(tmp_path / f"{bundle}{mode}{k}")])
    assert len(docs) == 5 * 2 * 3 * 4
    for doc in docs:
        assert writer(doc) == _stdlib_json_bytes(doc)


# -- the writer's finding-entry branch -----------------------------------------


def _flow_reports(monkeypatch, argv_list) -> list:
    """The flow report documents the CLI hands the JSON writer, one per
    argument list."""
    docs = []
    writer = report.to_json_bytes

    def recording(doc, *args):
        if doc["schema"] == "flow_report":
            docs.append(doc)
        return writer(doc, *args)

    monkeypatch.setattr(report, "to_json_bytes", recording)
    for argv in argv_list:
        main(argv)
    assert len(docs) == len(argv_list)
    return docs


def test_json_writer_matches_stdlib_on_filtered_and_empty_flow_reports(
        bundles_dir, tmp_path, monkeypatch):
    """The finite-witness flow report filtered by ``--where``, and flow
    reports with no findings (filtered to none, and a bundle with none),
    are written as ``json.dumps`` writes them."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    bundle = str(synth.generate(synth.Shape.parse("2x4x3x2"), 1).write(
        tmp_path / "b"))
    runs = [["--bundle", bundle, "--mode", "finite", "--where", where]
            for where in ("sinkKindIs(network)", "unitIs(NoSuchUnit)")]
    runs.append(["--bundle", str(bundles_dir / "perm_zero")])
    docs = _flow_reports(monkeypatch, [
        [*argv, "--out", str(tmp_path / str(i))]
        for i, argv in enumerate(runs)])
    assert [doc["findingCount"] for doc in docs] == [64, 0, 0]
    assert docs[0]["predicate"] == "sinkKindIs(network)"
    for doc in docs:
        assert to_json_bytes(doc) == _stdlib_json_bytes(doc)


def test_json_writer_writes_a_finding_entry_in_one_call(tmp_path,
                                                       monkeypatch):
    """Each finding entry of the finite-witness flow report costs the
    writer one ``_write_json`` call, besides the calls that make each
    shared part's and each state ref's text once (316 calls for 128
    entries); the bytes are ``json.dumps``'s."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    bundle = load_bundle(synth.generate(synth.Shape.parse("2x4x3x2"), 1)
                         .write(tmp_path / "b"))
    units = eps.discover_entry_points(bundle, bundle.program)
    _s, _t, trace = eps.saturate_app(
        bundle.program, units, AnalysisConfig(mode="finite", k=1),
        bundle.summaries)
    doc = emit_flow_report(extract_findings(trace), None, bundle.program,
                           META)
    entries = doc["findings"]
    calls = 0
    write = report._write_json

    def counted(*args):
        nonlocal calls
        calls += 1
        return write(*args)

    monkeypatch.setattr(report, "_write_json", counted)
    assert to_json_bytes(doc) == _stdlib_json_bytes(doc)
    assert len(entries) == 128
    # an entry written key by key takes at least five calls: itself, its
    # sink, source, trigger and witness
    assert calls < 3 * len(entries)


def test_json_writer_writes_look_alike_entries_as_stdlib_does():
    """A dict that only looks like a finding entry (a list witness, a
    seventh or a missing key, a category or unit that is no string) takes
    the general path, and a real entry beside it the entry branch; both
    are written as ``json.dumps`` writes them."""
    program, res, findings = _findings_and_result()
    entry = emit_flow_report(findings, None, program, META)["findings"][0]
    look_alikes = [
        {**entry, "witness": list(entry["witness"])},
        {**entry, "note": "a seventh key"},
        {key: v for key, v in entry.items() if key != "unit"},
        {**entry, "category": 5},
        {**entry, "unit": None},
        {**entry, "sink": [entry["sink"], {"nested": [entry["source"]]}]},
    ]
    for alike in look_alikes:
        doc = {"findings": [alike, entry, alike], "one": alike,
               "entry": entry}
        assert to_json_bytes(doc) == _stdlib_json_bytes(doc), alike.keys()
