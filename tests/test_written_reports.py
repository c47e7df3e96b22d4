"""The report files the CLI writes, against the documents it built.

The CLI streams each JSON report to its file in chunks and writes the DOT
as UTF-8 bytes. Each JSON file must equal what ``to_json_bytes`` gives
for the same document in one piece and, parsed, validate against its
shipped schema; the DOT must equal the text
``export_graph`` returned and, where one is pinned, its digest. The DOT's
one sorted pass is checked against ``_reference_dot``, the global sort it
replaced.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from jsonschema import ValidationError

from pdcfa import report
from pdcfa.cli import EXIT_FINDINGS, EXIT_INTERNAL, EXIT_RESOURCE_LIMIT, \
    EXIT_USAGE, load_bundle, main
from pdcfa.eps import discover_entry_points, saturate_app
from pdcfa.reach import FINITE, PUSHDOWN, AnalysisConfig, ControlState, Edge
from pdcfa.report import export_graph, to_json_bytes
from pdcfa.taint import extract_findings
from schemas import validate_document, validate_written
from test_eps import _mask_cases
from test_golden import FINITE_MANY_FINDINGS_PIN, PUSHDOWN_PINS
from test_report import _aliased_docs, _stdlib_json_bytes
from views import views, with_triggers, witness_steps

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
SCHEMA_FILES = {"flow_report": "flow_report.json",
                "permissions_report": "permissions_report.json",
                "heatmap": "heatmap.json", "run_meta": "run_meta.json"}


class _Digest:
    """A binary sink that keeps only the SHA-256 of what is written to it
    and the number of writes."""

    def __init__(self):
        self.sha, self.writes = hashlib.sha256(), 0

    def write(self, data: bytes) -> None:
        self.sha.update(data)
        self.writes += 1


class _Pieces(list):
    """A binary sink that keeps each write."""

    def write(self, data: bytes) -> None:
        self.append(data)


def _file_digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _synth_bundle(tmp_path, monkeypatch, shape: str, seed: int) -> Path:
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    return synth.generate(synth.Shape.parse(shape), seed).write(
        tmp_path / f"{shape}-{seed}")


def _check_cli_run(monkeypatch, out: Path, argv: list,
                   pinned: dict | None = None) -> tuple:
    """Run the CLI, recording each document it hands the JSON writer and
    the DOT text it got. Every report file must equal its document written
    in one piece and, parsed, validate against its shipped schema; the DOT
    file must equal its text. ``pinned`` maps report files to digests they
    must have. Returns the exit code and the documents by schema."""
    docs, dots = {}, []
    writer, export = report.to_json_bytes, report.export_graph

    def recording(doc, *args, **kwargs):
        docs[doc["schema"]] = doc
        return writer(doc, *args, **kwargs)

    def exporting(*args):
        dots.append(export(*args))
        return dots[-1]

    monkeypatch.setattr(report, "to_json_bytes", recording)
    monkeypatch.setattr(report, "export_graph", exporting)
    try:
        code = main([*argv, "--out", str(out)])
    finally:
        monkeypatch.setattr(report, "to_json_bytes", writer)
        monkeypatch.setattr(report, "export_graph", export)
    assert sorted(docs) == sorted(SCHEMA_FILES) and len(dots) == 1
    chunk = report._CHUNK
    monkeypatch.setattr(report, "_CHUNK", 1 << 30)  # one piece
    for schema, name in SCHEMA_FILES.items():
        whole = _Digest()
        writer(docs[schema], whole)
        assert whole.writes == 1
        assert _file_digest(out / name) == whole.sha.hexdigest(), name
        validate_written((out / name).read_bytes(), schema)
    monkeypatch.setattr(report, "_CHUNK", chunk)
    assert (out / "state_graph.dot").read_bytes() == dots[0].encode("utf-8")
    for name, digest in (pinned or {}).items():
        assert _file_digest(out / name) == digest, name
    return code, docs


def test_written_reports_equal_documents_on_the_corpus(bundles_dir, tmp_path,
                                                      monkeypatch):
    """The 30 configurations of ``bench/reference.json``'s corpus, each
    report file at its pinned digest."""
    pins = REFERENCE["corpus"]
    assert len(pins) == 30
    for i, (name, pin) in enumerate(sorted(pins.items())):
        bundle, mode, k = name.split()
        code, _ = _check_cli_run(
            monkeypatch, tmp_path / str(i),
            ["--bundle", str(bundles_dir / bundle), "--mode", mode,
             "--k", k.removeprefix("k=")], pin["digests"])
        assert code == pin["exit_code"], name


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
@pytest.mark.parametrize("workload", ["finite-witness", "wide-pushdown"])
def test_written_reports_equal_documents_on_synth_references(
        tmp_path, monkeypatch, workload, mode):
    """Both generated reference bundles under both engines; under its own
    engine each matches its ``bench/reference.json`` digests."""
    ref = REFERENCE[workload]
    bundle = _synth_bundle(tmp_path, monkeypatch, ref["shape"], ref["seed"])
    code, docs = _check_cli_run(
        monkeypatch, tmp_path / "out",
        ["--bundle", str(bundle), "--mode", mode, "--k", str(ref["k"])],
        ref["digests"] if mode == ref["mode"] else None)
    assert code == EXIT_FINDINGS
    assert docs["flow_report"]["findingCount"] > 0


@pytest.mark.parametrize("shape,seed,mode,k,pin", [
    *(("6x8x3x2", seed, PUSHDOWN, k, pin)
      for (seed, k), pin in sorted(PUSHDOWN_PINS.items())),
    ("4x6x3x2", 1, FINITE, 1, FINITE_MANY_FINDINGS_PIN),
])
def test_written_reports_equal_documents_on_golden_synth_pins(
        tmp_path, monkeypatch, shape, seed, mode, k, pin):
    """The other generated configurations ``tests/test_golden.py`` pins."""
    bundle = _synth_bundle(tmp_path, monkeypatch, shape, seed)
    code, _ = _check_cli_run(
        monkeypatch, tmp_path / "out",
        ["--bundle", str(bundle), "--mode", mode, "--k", str(k)], pin)
    assert code == EXIT_FINDINGS


def test_written_reports_equal_documents_with_findings_filtered_out(
        tmp_path, monkeypatch):
    ref = REFERENCE["finite-witness"]
    bundle = _synth_bundle(tmp_path, monkeypatch, ref["shape"], ref["seed"])
    argv = ["--bundle", str(bundle), "--mode", ref["mode"]]
    _, every = _check_cli_run(monkeypatch, tmp_path / "all", argv)
    code, kept = _check_cli_run(
        monkeypatch, tmp_path / "kept",
        [*argv, "--where", "sinkKindIs(network) and unitIs(Unit1)"])
    assert code == EXIT_FINDINGS
    assert 0 < kept["flow_report"]["findingCount"] \
        < every["flow_report"]["findingCount"]


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
def test_written_reports_equal_documents_when_stopped_at_max_states(
        bundles_dir, tmp_path, monkeypatch, mode):
    code, docs = _check_cli_run(
        monkeypatch, tmp_path / "out",
        ["--bundle", str(bundles_dir / "photoquote_full"), "--mode", mode,
         "--max-states", "5"])
    assert code == EXIT_RESOURCE_LIMIT
    assert docs["run_meta"]["limitReason"] == "max-states"


def _finite_witness_flow(tmp_path, monkeypatch) -> tuple:
    """The flow document of the finite-witness reference, its findings and
    its program."""
    ref = REFERENCE["finite-witness"]
    bundle = load_bundle(_synth_bundle(tmp_path, monkeypatch, ref["shape"],
                                       ref["seed"]))
    _s, _t, trace = saturate_app(
        bundle.program, discover_entry_points(bundle, bundle.program),
        AnalysisConfig(mode=ref["mode"], k=ref["k"]), bundle.summaries)
    findings = extract_findings(trace)
    return report.emit_flow_report(findings, None, bundle.program,
                                   {"toolVersion": "test", "inputs": {},
                                    "config": {"k": 1}}), \
        findings, bundle.program


def test_writer_in_tiny_chunks_matches_one_piece(tmp_path, monkeypatch):
    """With chunk sizes of 1-3 the writer spills after every container item,
    so the first mention of each shared ref, trigger, sink and witness
    segment is written out before it is met again: the memo must hold
    their text, not a span of chunks already gone."""
    doc, findings, _program = _finite_witness_flow(tmp_path, monkeypatch)
    whole = to_json_bytes(doc)
    assert whole == _stdlib_json_bytes(doc)
    for chunk in (1, 2, 3):
        monkeypatch.setattr(report, "_CHUNK", chunk)
        pieces = _Pieces()
        assert to_json_bytes(doc, pieces) is None
        assert b"".join(pieces) == whole
        assert len(pieces) > len(findings)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_aliased_docs())
def test_writer_in_tiny_chunks_matches_stdlib_on_shared_objects(doc):
    pieces = _Pieces()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_CHUNK", 1)
        to_json_bytes(doc, pieces)
    assert b"".join(pieces) == _stdlib_json_bytes(doc)


def test_flow_witness_iterates_its_refs(tmp_path, monkeypatch):
    """A flow document's witness is no list: it iterates the refs of its
    finding's witness states, in order, and its length is their count."""
    doc, findings, program = _finite_witness_flow(tmp_path, monkeypatch)
    witnesses = [entry["witness"] for entry in doc["findings"]]
    assert any(len(w.segments) == 2 for w in witnesses)
    for w, f in zip(witnesses, findings, strict=True):
        assert not isinstance(w, list)
        assert list(w) == [{"class": s.pos.method.class_name,
                            "method": s.pos.method.method_name,
                            "line": program.line_of(s.pos)}
                           for s in f.witness]
        assert len(w) == len(f.witness)


def test_written_validation_finds_what_plain_validation_finds(tmp_path,
                                                             monkeypatch):
    """``validate_written`` parses equal objects as one and checks each
    once: a wrong value in one mention of a state ref, a trigger or a sink
    is still found, with the message and at the path that plain validation
    gives."""
    doc, _findings, _program = _finite_witness_flow(tmp_path, monkeypatch)
    data = to_json_bytes(doc)
    validate_written(data, "flow_report")

    def last_ref_at_line_1(d):  # True == 1: only its type tells them apart
        return [ref for f in d["findings"] for ref in f["witness"]
                if ref["line"] == 1][-1]

    for held, field, value in (
            (last_ref_at_line_1, "line", True),
            (lambda d: d["findings"][1]["source"], "line", 1.5),
            (lambda d: d["findings"][-1]["trigger"], "entryPoint", 3),
            (lambda d: d["findings"][0]["sink"], "kind", "nope")):
        broken = json.loads(data)
        held(broken)[field] = value
        with pytest.raises(ValidationError) as plain:
            validate_document(broken, "flow_report")
        with pytest.raises(ValidationError) as written:
            validate_written(json.dumps(broken).encode(), "flow_report")
        assert ((written.value.message, written.value.path)
                == (plain.value.message, plain.value.path)), (field, value)


def test_a_failed_write_removes_the_reports_it_began(bundles_dir, tmp_path,
                                                     monkeypatch, capsys):
    """An internal error while a report streams exits 4 and leaves no
    report file; so does an OS error, which exits 2."""
    writer = report.to_json_bytes

    def failing(doc, fh=None):
        if doc["schema"] == "heatmap":
            fh.write(b'{\n  "methods": [')
            raise error
        return writer(doc, fh)

    monkeypatch.setattr(report, "to_json_bytes", failing)
    argv = ["--bundle", str(bundles_dir / "photoquote_full")]
    for error, exit_code in ((RuntimeError("broken writer"), EXIT_INTERNAL),
                             (OSError(28, "No space left on device"),
                              EXIT_USAGE)):
        out = tmp_path / str(exit_code)
        assert main([*argv, "--out", str(out)]) == exit_code
        assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert "pdcfa: internal error: RuntimeError: broken writer" in err
    assert "No space left on device" in err


def test_a_failed_removal_keeps_the_write_error(bundles_dir, tmp_path,
                                                monkeypatch, capsys):
    """When the begun report files cannot be removed either, the error of
    the write still decides the exit code and the message."""
    writer = report.to_json_bytes

    def failing(doc, fh=None):
        if doc["schema"] == "heatmap":
            raise error
        return writer(doc, fh)

    def unremovable(path, missing_ok=False):
        raise PermissionError(13, "Read-only file system", str(path))

    monkeypatch.setattr(report, "to_json_bytes", failing)
    monkeypatch.setattr(Path, "unlink", unremovable)
    argv = ["--bundle", str(bundles_dir / "photoquote_full")]
    for error, exit_code in ((RuntimeError("broken writer"), EXIT_INTERNAL),
                             (OSError(28, "No space left on device"),
                              EXIT_USAGE)):
        out = tmp_path / str(exit_code)
        assert main([*argv, "--out", str(out)]) == exit_code
        assert sorted(p.name for p in out.iterdir()) == [
            "flow_report.json", "heatmap.json", "permissions_report.json",
            "state_graph.dot"]  # the DOT is written first
    err = capsys.readouterr().err
    assert "pdcfa: internal error: RuntimeError: broken writer" in err
    assert "No space left on device" in err
    assert "Read-only file system" not in err


# -- the DOT ------------------------------------------------------------------


def _reference_dot(result, findings, program) -> str:
    """``export_graph`` in its sort-key form: every node sorted by
    ``ControlState.sort_key`` and every edge by ``Edge.sort_key`` (the
    order ``export_graph`` compares as integer ranks), each label formatted
    where it is used, and each finding's witness steps read one by one."""
    nodes, edges = result.dsg.nodes, result.dsg.edges
    apps = result.applications
    source_states = {a.state for a in apps if a.source_categories}
    sink_states = {a.state for a in apps if a.sink_hits}
    witness_edges = set()
    witness_summaries = set()
    for f in findings:
        for step in witness_steps(f):
            if step.kind == "summary":
                witness_summaries.add((step.src, step.dst))
            else:
                witness_edges.add((step.src, step.kind, step.frame, step.dst))

    ordered = sorted(nodes, key=ControlState.sort_key)
    ids = {n: f"n{i}" for i, n in enumerate(ordered)}
    lines = ["digraph reachable_states {",
             "  rankdir=LR;",
             '  node [shape=box, fontname="monospace", fontsize=9];']
    for n in ordered:
        label = report._dot_quote(
            f"{n.pos.method.class_name}.{n.pos.method.method_name}"
            f":{program.line_of(n.pos)}\\n@{n.pos.index}"
            f"{'+move' if n.pos.at_move else ''} {n.fp.canonical()}")
        fill = report._NODE_FILL.get((n in source_states, n in sink_states))
        style = f', style=filled, fillcolor="{fill}"' if fill else ""
        lines.append(f'  {ids[n]} [label="{label}"{style}];')
    for e in sorted(edges, key=Edge.sort_key):
        label = report._EDGE_LABELS[e.kind]
        if e.frame is not None:
            label += f" {report._dot_quote(e.frame.canonical())}"
        attrs = [f'label="{label}"']
        if (e.src, e.kind, e.frame, e.dst) in witness_edges:
            attrs += ['color="red"', "penwidth=2", 'witness="1"']
        lines.append(f"  {ids[e.src]} -> {ids[e.dst]} [{', '.join(attrs)}];")
    for src, dst in sorted(witness_summaries,
                           key=lambda p: (p[0].sort_key(), p[1].sort_key())):
        if src in ids and dst in ids:
            lines.append(f"  {ids[src]} -> {ids[dst]} "
                         '[label="ε*", style=dashed, color="red", '
                         'penwidth=2, witness="1"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
@pytest.mark.parametrize("source",
                         ["shipped", "micro", "wide-pushdown",
                          "finite-witness"])
def test_dot_equals_reference_dot(bundles_dir, tmp_path, monkeypatch,
                                  source, mode):
    """The DOT of the fixpoint graph, with every finding, and of the first,
    middle and last view, each with its own findings, equals the
    reference's: shipped bundles at k 0-2, every micro program, and both
    generated references."""
    highlighted = 0
    for label, program, units, k, summaries in _mask_cases(
            bundles_dir, tmp_path, monkeypatch, source):
        _s, _t, trace = saturate_app(
            program, units, AnalysisConfig(mode=mode, k=k), summaries)
        parts = views(trace)
        findings = extract_findings(trace)
        dot = export_graph(trace.fixpoint, findings, program)
        assert dot == _reference_dot(trace.fixpoint, findings, program), \
            label
        highlighted += dot.count('witness="1"')
        for i in sorted({0, len(parts) // 2, len(parts) - 1}):
            found = extract_findings(with_triggers(trace,
                                                   [trace.triggers[i]]))
            assert (export_graph(parts[i], found, program)
                    == _reference_dot(parts[i], found, program)), (label, i)
    assert highlighted


@pytest.mark.parametrize("heap_context", [False, True])
@pytest.mark.parametrize("mode", [PUSHDOWN, FINITE])
@pytest.mark.parametrize("source", ["shipped", "micro", "synth"])
def test_ranked_dot_equals_sort_key_dot(bundles_dir, tmp_path, monkeypatch,
                                        source, mode, heap_context):
    """``export_graph``, which sorts nodes and edges by integer ranks,
    writes the bytes of the sort-key reference on each graph, with every
    finding: every shipped bundle and micro program, and synth 2x4x3x2 at
    seeds 2-4 (whose DOTs no digest pins), at k 0-2."""
    if source == "synth":
        cases = []
        for seed in (2, 3, 4):
            bundle = load_bundle(_synth_bundle(tmp_path, monkeypatch,
                                               "2x4x3x2", seed))
            cases.append((f"2x4x3x2 seed {seed}", bundle.program,
                          discover_entry_points(bundle, bundle.program),
                          bundle.summaries))
    else:
        named = {}
        for label, program, units, _k, summaries in _mask_cases(
                bundles_dir, tmp_path, monkeypatch, source):
            name = label.split(" k=")[0]  # a shipped bundle comes once per k
            named[name] = (name, program, units, summaries)
        cases = list(named.values())
    assert len(cases) >= 3
    for label, program, units, summaries in cases:
        for k in (0, 1, 2):
            cfg = AnalysisConfig(mode=mode, k=k, heap_context=heap_context)
            _s, _t, trace = saturate_app(program, units, cfg, summaries)
            findings = extract_findings(trace)
            dot = export_graph(trace.fixpoint, findings, program)
            assert dot == _reference_dot(trace.fixpoint, findings, program), \
                (label, k)
