"""Command-line front-end tests: exit codes, outputs, flags."""

import copy
import gc
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import ValidationError

from pdcfa import cli, eps, reach
from pdcfa.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    EXIT_RESOURCE_LIMIT,
    EXIT_USAGE,
    load_bundle,
    main,
)
from schemas import load_schema, validate_document
from views import views

BENCH = Path(__file__).resolve().parent.parent / "bench"
REPORT_FILES = ("flow_report.json", "permissions_report.json",
                "heatmap.json", "state_graph.dot")


def _run(bundles_dir, tmp_path, bundle, *extra):
    out = tmp_path / "out"
    code = main(["--bundle", str(bundles_dir / bundle),
                 "--out", str(out), *extra])
    return code, out


def test_benign_bundle_exits_clean_with_four_reports(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "perm_over",
                     "--mode", "pushdown", "--k", "1")
    assert code == EXIT_CLEAN
    for name in REPORT_FILES:
        assert (out / name).is_file(), name
    assert (out / "run_meta.json").is_file()
    meta = json.loads((out / "run_meta.json").read_text())
    validate_document(meta, "run_meta")
    assert meta["complete"] is True


def test_flow_findings_exit_one(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--mode", "pushdown", "--k", "1")
    assert code == EXIT_FINDINGS
    doc = json.loads((out / "flow_report.json").read_text())
    validate_document(doc, "flow_report")
    assert doc["findingCount"] == 1


def test_finite_mode_reports_spurious_finding_too(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--mode", "finite", "--k", "0")
    assert code == EXIT_FINDINGS
    doc = json.loads((out / "flow_report.json").read_text())
    assert doc["findingCount"] == 2


def test_usage_error_exit_two(tmp_path):
    assert main(["--bundle"]) == EXIT_USAGE
    assert main(["--bundle", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_bad_manifest_exit_two(tmp_path):
    bundle = tmp_path / "broken"
    bundle.mkdir()
    (bundle / "manifest.json").write_text("{}")
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE


# -- the manifest check: exactly what manifest.schema.json accepts -----------

_DROP = object()  # an edit that removes the key or item at its path


def _edited(manifest, path: tuple, value):
    """A deep copy of ``manifest`` with ``value`` at ``path`` (the whole
    document when ``path`` is empty), or that key or item removed."""
    if not path:
        return copy.deepcopy(value)
    manifest = copy.deepcopy(manifest)
    *outer, last = path
    parent = manifest
    for key in outer:
        parent = parent[key]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return manifest


def _hand_accepts(manifest) -> bool:
    try:
        cli.check_manifest(manifest)
    except cli.BundleError:
        return False
    return True


def _schema_accepts(manifest) -> bool:
    try:
        validate_document(manifest, "manifest")
    except ValidationError:
        return False
    return True


# read-only: every edit below works on a deep copy
SHIPPED_MANIFESTS = [
    json.loads((bundle / "manifest.json").read_text())
    for bundle in sorted((Path(__file__).parent / "corpus" / "bundles").iterdir())]


# values put in place of a field, an item or the whole document: every JSON
# type, the empty ones, and the enums' values, each also where it does not
# belong
_VALUES = (True, False, 0, 3, 2.5, None, "", "x", [], ["x"], [1], {},
           {"x": "y"}, "activity", "other", "lifecycle-callback",
           "ui-handler", "manifest", "layout")
# keys added to an object: unknown ones, and optional ones of other levels
_KEYS = ("extra", "predicates", "paramTypes", "category",
         "registrationSource", "kind")


def _nodes(value, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


@st.composite
def _mutated_manifests(draw):
    """A shipped manifest after one to three edits, each at a random node:
    drop a key or an item, replace a value (a wrong type, an out-of-list
    enum value, an empty array, a non-object document), or add a key or
    an item."""
    manifest = draw(st.sampled_from(SHIPPED_MANIFESTS))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(manifest))
        path, node = nodes[draw(st.integers(0, len(nodes) - 1))]
        edits = ["replace"]
        if isinstance(node, (dict, list)) and node:
            edits.append("drop")
        if isinstance(node, (dict, list)):
            edits.append("add")
        edit = draw(st.sampled_from(edits))
        if edit == "replace":
            manifest = _edited(manifest, path, draw(st.sampled_from(_VALUES)))
        elif edit == "drop":
            keys = list(node) if isinstance(node, dict) else range(len(node))
            manifest = _edited(manifest, path + (draw(st.sampled_from(keys)),),
                               _DROP)
        elif isinstance(node, dict):
            manifest = _edited(manifest, path + (draw(st.sampled_from(_KEYS)),),
                               draw(st.sampled_from(_VALUES)))
        else:
            extra = draw(st.sampled_from(_VALUES + tuple(node)))
            manifest = _edited(manifest, path, [*node, extra])
    return manifest


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_mutated_manifests())
def test_manifest_check_agrees_with_the_schema(manifest):
    assert _hand_accepts(manifest) == _schema_accepts(manifest)


def test_manifest_check_accepts_every_shipped_manifest():
    for manifest in SHIPPED_MANIFESTS:
        assert _hand_accepts(manifest) and _schema_accepts(manifest)


# one edit of three_unit_relay's manifest per rule of the schema, and the key
# path the check names (None: the edited manifest is accepted)
MANIFEST_RULES = {
    "required key": (("appName",), _DROP, "appName"),
    "required key of an entry point": (
        ("units", 1, "entryPoints", 0, "method"), _DROP,
        "units[1].entryPoints[0].method"),
    "optional key dropped": (("units", 0, "entryPoints", 0, "category"),
                             _DROP, None),
    "string, not a boolean": (("program",), True, "program"),
    "string, not an integer": (("units", 2, "name"), 7, "units[2].name"),
    "string, not null": (("summaries",), None, "summaries"),
    "string, not an object": (("units", 0, "entryPoints", 1, "class"), {},
                              "units[0].entryPoints[1].class"),
    "string item": (("requestedPermissions",), ["INTERNET", 1],
                    "requestedPermissions[1]"),
    "array": (("predicates",), "taintHas(Location)", "predicates"),
    "object": (("units", 1), ["UploaderUnit"], "units[1]"),
    "units not empty": (("units",), [], "units"),
    "entry points not empty": (("units", 2, "entryPoints"), [],
                               "units[2].entryPoints"),
    "unit kind": (("units", 0, "kind"), "fragment", "units[0].kind"),
    "entry category": (("units", 0, "entryPoints", 1, "category"), "layout",
                       "units[0].entryPoints[1].category"),
    "registration source": (
        ("units", 1, "entryPoints", 0, "registrationSource"), "code",
        "units[1].entryPoints[0].registrationSource"),
    "enum value from its list": (
        ("units", 1, "entryPoints", 0, "category"), "ui-handler", None),
    "extra keys": (("units", 0, "entryPoints", 0, "note"), {"any": [1]},
                   None),
    "object document": ((), ["three-unit-relay"], "top level"),
}


@pytest.mark.parametrize("rule", MANIFEST_RULES)
def test_manifest_rule(bundles_dir, rule):
    path, value, where = MANIFEST_RULES[rule]
    manifest = _edited(json.loads(
        (bundles_dir / "three_unit_relay" / "manifest.json").read_text()),
        path, value)
    assert _schema_accepts(manifest) == (where is None)
    if where is None:
        cli.check_manifest(manifest)
    else:
        with pytest.raises(cli.BundleError,
                           match=re.escape(f"does not validate: {where}: ")):
            cli.check_manifest(manifest)


# the keywords cli._violations reads, and those that only annotate a schema
_CHECKED_KEYWORDS = {"type", "enum", "required", "properties", "minItems",
                     "items"}
_ANNOTATIONS = {"$schema", "title"}


def test_the_manifest_check_reads_every_keyword_of_its_schema():
    """A keyword or ``type`` added to the shipped manifest schema fails
    here until ``cli._violations`` reads it, instead of being ignored."""
    schema = load_schema("manifest")
    assert cli._manifest_schema() == schema

    def walk(schema: dict, at: str):
        assert set(schema) <= _CHECKED_KEYWORDS | _ANNOTATIONS, at
        if "type" in schema:
            assert schema["type"] in cli._TYPES, at
        assert all(type(v) is str for v in schema.get("enum", ())), at
        assert type(schema.get("minItems", 0)) is int, at
        for key, subschema in schema.get("properties", {}).items():
            walk(subschema, f"{at}.{key}")
        if "items" in schema:
            walk(schema["items"], f"{at}[]")

    walk(schema, "top level")


def test_malformed_manifest_exits_two_naming_the_key_path(
        bundles_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "three_unit_relay", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["units"][0]["entryPoints"][1]["category"] = "layout"
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert ("manifest does not validate: units[0].entryPoints[1].category: "
            "'layout' is not one of lifecycle-callback, async-operation, "
            "ui-handler") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_run_imports_neither_jsonschema_nor_the_oracle(bundles_dir, tmp_path):
    """A fresh ``pdcfa`` process checks its manifest by hand and never runs
    the concrete oracle: neither module may be imported by the package or
    by a whole run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, pdcfa.cli\n"
            "unwanted = {'jsonschema', 'pdcfa.concrete'}\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "pdcfa.cli.main(sys.argv[1:])\n"
            "print(sorted(unwanted & set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code,
         "--bundle", str(bundles_dir / "photoquote_full"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]"), proc.stdout
    assert (tmp_path / "out" / "flow_report.json").is_file()


def test_a_run_imports_neither_dataclasses_nor_inspect():
    """Records are built by ``ir.record``: a fresh import of the CLI, and of
    the oracle after it, loads neither ``dataclasses`` nor the ``inspect``
    it brings in."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys\n"
            "unwanted = {'dataclasses', 'inspect'}\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "import pdcfa.cli\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "import pdcfa.concrete\n"
            "print(sorted(unwanted & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"], proc.stdout


def test_bad_predicate_exit_two(bundles_dir, tmp_path, capsys):
    """An unknown atom and an empty or blank ``--where`` are usage errors,
    as an empty predicate in the manifest is."""
    for where, error in (("bogus(1)", "unknown predicate atom 'bogus'"),
                         ("", "empty predicate"), (" ", "empty predicate")):
        code, _ = _run(bundles_dir, tmp_path, "perm_over", "--where", where)
        assert code == EXIT_USAGE, repr(where)
        assert capsys.readouterr().err == f"pdcfa: error: {error}\n"


def test_a_line_range_of_no_integers_exits_two_naming_the_atom(
        bundles_dir, tmp_path, capsys):
    code, _ = _run(bundles_dir, tmp_path, "perm_over",
                   "--where", "lineIn(a, 3)")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "pdcfa: error: lineIn takes two integers (lo, hi), "
        "got 'lineIn(a, 3)'\n")


@pytest.mark.parametrize("limit", ["abc", "1.5", "1_0"])
def test_a_limit_that_is_no_integer_exits_two_naming_the_atom(
        bundles_dir, tmp_path, capsys, limit):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "three_unit_relay", bundle)
    program = bundle / "app.sdex"
    lines = program.read_text().split("\n")
    line = next(i for i, text in enumerate(lines, 1) if "(limit 4)" in text)
    col = lines[line - 1].index("(limit 4)") + len("(limit ") + 1
    lines[line - 1] = lines[line - 1].replace("(limit 4)", f"(limit {limit})")
    program.write_text("\n".join(lines))
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"pdcfa: error: malformed limit {limit!r} at {line}:{col}\n")
    assert not (tmp_path / "out").exists()


def test_a_manifest_line_range_of_no_integers_exits_two_naming_the_atom(
        bundles_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "perm_over", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["predicates"] = ["taintHas(Location) and lineIn(1, 2, 3)"]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "pdcfa: error: lineIn takes two integers (lo, hi), "
        "got 'lineIn(1, 2, 3)'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["manifest.json", "app.sdex",
                                  "api.summaries"])
def test_a_bundle_file_not_in_utf8_exits_two_naming_file_and_byte(
        bundles_dir, tmp_path, capsys, name):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "perm_zero", bundle)
    path = bundle / name
    data = path.read_bytes()
    path.write_bytes(data[:7] + b"\xff" + data[7:])
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"pdcfa: error: {path} is not UTF-8: invalid start byte at byte 7\n")
    assert not (tmp_path / "out").exists()


def test_an_unknown_summary_category_exits_two_naming_the_line(
        bundles_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "perm_over", bundle)
    summaries = bundle / "api.summaries"
    lines = summaries.read_text().split("\n")
    lines[1] = lines[1].replace("role=sink:sms", "role=sink:sms:Bogus")
    summaries.write_text("\n".join(lines))
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "pdcfa: error: line 2: unknown taint category 'Bogus'\n")
    assert not (tmp_path / "out").exists()


def test_invalid_k_exit_two(bundles_dir, tmp_path):
    code, _ = _run(bundles_dir, tmp_path, "perm_over", "--k", "9")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("seconds", ["nan", "inf", "1e400"])
def test_non_finite_max_seconds_exit_two(bundles_dir, tmp_path, capsys,
                                         seconds):
    """A NaN deadline never trips, and neither value is JSON for the
    reports' config echo."""
    code, out = _run(bundles_dir, tmp_path, "perm_over",
                     "--max-seconds", seconds)
    assert code == EXIT_USAGE
    assert "budgets must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_resource_limit_exit_three(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--max-states", "2")
    assert code == EXIT_RESOURCE_LIMIT
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["complete"] is False
    assert meta["limitReason"] == "max-states"
    perm = json.loads((out / "permissions_report.json").read_text())
    assert perm["lowerBound"] is True


def _assert_partial(out, reason):
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["complete"] is False
    assert meta["limitReason"] == reason
    perm = json.loads((out / "permissions_report.json").read_text())
    assert perm["lowerBound"] is True


def _count_runs(monkeypatch):
    """Wrap the engine entry point and saturation; return the list of the
    state count of each fixpoint run and, after a saturation with
    triggers, of each entry point's view (read from the run's masks),
    filled in as they finish."""
    sizes = []
    analyze, saturate = reach.analyze, eps.saturate_app

    def counted(*args, **kwargs):
        result = analyze(*args, **kwargs)
        sizes.append(len(result.dsg.nodes))
        return result

    def viewed(*args, **kwargs):
        store, taint, trace = saturate(*args, **kwargs)
        sizes.extend(len(v.dsg.nodes) for v in views(trace))
        return store, taint, trace

    monkeypatch.setattr(reach, "analyze", counted)
    monkeypatch.setattr(eps, "saturate_app", viewed)
    return sizes


EMPTY_DOT = ('digraph reachable_states {\n  rankdir=LR;\n'
             '  node [shape=box, fontname="monospace", fontsize=9];\n}\n')


def _assert_stopped_in_fixpoint_run(out):
    """A run stopped inside its fixpoint run has no views: no findings and
    an empty graph."""
    flow = json.loads((out / "flow_report.json").read_text())
    assert flow["findingCount"] == 0
    assert (out / "state_graph.dot").read_text() == EMPTY_DOT


def test_max_states_bounds_the_fixpoint_run(bundles_dir, tmp_path):
    """photoquote_full's pushdown fixpoint run at k=1 builds 63 states: a
    limit of 63 lets the run complete, and 62 stops it."""
    args = ("photoquote_full", "--mode", "pushdown", "--k", "1")
    code, _ = _run(bundles_dir, tmp_path / "fits", *args,
                   "--max-states", "63")
    assert code == EXIT_FINDINGS
    code, out = _run(bundles_dir, tmp_path, *args, "--max-states", "62")
    assert code == EXIT_RESOURCE_LIMIT
    _assert_partial(out, "max-states")
    _assert_stopped_in_fixpoint_run(out)


@pytest.mark.parametrize("mode, limit", [
    ("pushdown", 101), ("pushdown", 134), ("finite", 145)])
def test_max_states_counts_the_fixpoint_run_not_its_views(
        bundles_dir, tmp_path, monkeypatch, mode, limit):
    """photoquote_full's fixpoint run at k=1 (63 states pushdown, 87
    finite) fits under ``limit``, although it and its six views hold more
    nodes together: views build no state, so the run completes. Its DOT is
    the unlimited run's, byte for byte, and its JSON reports are that run's
    but for the ``maxStates`` echo."""
    args = ("photoquote_full", "--mode", mode, "--k", "1")
    code, full = _run(bundles_dir, tmp_path / "full", *args)
    assert code == EXIT_FINDINGS
    sizes = _count_runs(monkeypatch)
    code, out = _run(bundles_dir, tmp_path, *args,
                     "--max-states", str(limit))
    assert code == EXIT_FINDINGS
    assert len(sizes) == 1 + 6 and sizes[0] <= limit < sum(sizes)
    assert ((out / "state_graph.dot").read_bytes()
            == (full / "state_graph.dot").read_bytes())
    for name in REPORT_FILES[:3]:
        want = (full / name).read_bytes()
        assert want.count(b'"maxStates": 500000,') == 1, name
        want = want.replace(b'"maxStates": 500000,',
                            b'"maxStates": %d,' % limit)
        assert (out / name).read_bytes() == want, name
    metas = [json.loads((run / "run_meta.json").read_text())
             for run in (full, out)]
    for meta in metas:
        del meta["elapsedSeconds"], meta["config"]["maxStates"]
    assert metas[0] == metas[1]


def _stop_after_views(monkeypatch, kept):
    """Wrap ``eps.saturate_app`` so the CLI gets a saturation stopped at
    ``max-states`` after the first ``kept`` views of its complete fixpoint
    run, as the limit left it when views were charged against it: a
    trace with the first ``kept`` triggers."""
    saturate = eps.saturate_app

    def stopped(*args, **kwargs):
        store, taint, trace = saturate(*args, **kwargs)
        assert trace.complete
        return store, taint, eps.SaturationTrace(
            trace.fixpoint, trace.triggers[:kept], trace.global_rounds,
            complete=False, limit_reason="max-states")

    monkeypatch.setattr(eps, "saturate_app", stopped)


@pytest.mark.parametrize("mode, limit, digests", [
    ("pushdown", 101, (
        "8c85e772f00726ec747c59477c8eacc0565d51e029ad072da6e6a195cdbf26cf",
        "15d3712716223e4dcc3a415e0c83ce18265dcf6e3a561e8509d19e75b63bafc2",
        "5483f3526470fe21996e81eb376581231f002a57805f423b4b411b9f897baad4")),
    ("pushdown", 134, (
        "0a0fa7aa0183393ddcb45270ccf6bb80223da6257b8c6569f063d915244481dd",
        "2d17a6e54f1425ebb7eb830d86eab4c594c7fee627e7c78a3d91a78666e1b334",
        "5c41e1d1ecbadbd0e52a6615b1fe6297f18c0b541198350d9755b1a013aa519f")),
    ("finite", 145, (
        "33bee8ad52f96a085954773e42492f9f1be3626d938f00431c60f765b6eae6f4",
        "d569bd1b28b851f5764e854b098f9423d532297655ec9298176d2161de3e39a6",
        "2f0fc10b407b7e110ddb730972849adc5bd812d73c87d656bcc59bf0ce782404")),
])
def test_reports_of_a_saturation_stopped_between_views_are_pinned(
        bundles_dir, tmp_path, monkeypatch, mode, limit, digests):
    """When views were charged against ``limit``, the fixpoint run and its
    first ``kept`` views fit under it and the next did not, so saturation
    stopped between views. The run now completes; when saturation hands the
    CLI those views alone and a stop at ``max-states``, the heat map counts
    the visits of those views only, and the flow and permissions reports
    read those views only, as when the view charge stopped these runs
    there."""
    kept = {101: 3, 134: 5, 145: 3}[limit]
    sizes = _count_runs(monkeypatch)
    _stop_after_views(monkeypatch, kept)
    code, out = _run(bundles_dir, tmp_path, "photoquote_full", "--mode",
                     mode, "--k", "1", "--max-states", str(limit))
    assert code == EXIT_RESOURCE_LIMIT
    assert len(sizes) == 1 + 6
    assert sum(sizes[:1 + kept]) <= limit < sum(sizes[:2 + kept])
    _assert_partial(out, "max-states")
    assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in REPORT_FILES[:3]) == digests


def test_max_seconds_bounds_the_fixpoint_run(bundles_dir, tmp_path,
                                             monkeypatch):
    """On a clock that advances one second per reading, the deadline is
    made from one reading before parsing and checked at each worklist pop:
    a 10 s limit passes during photoquote_full's fixpoint run, which stops
    there with no views."""
    now = [0.0]

    def tick():
        now[0] += 1.0
        return now[0]

    monkeypatch.setattr(reach, "time", SimpleNamespace(monotonic=tick))
    sizes = _count_runs(monkeypatch)
    code, out = _run(bundles_dir, tmp_path, "photoquote_full",
                     "--max-seconds", "10")
    assert code == EXIT_RESOURCE_LIMIT
    _assert_partial(out, "max-seconds")
    _assert_stopped_in_fixpoint_run(out)
    assert len(sizes) == 1 and sizes[0] < 63
    # one reading makes the deadline, ten pass at pops, the next stops
    assert now[0] == 12


def test_max_seconds_counts_parsing(bundles_dir, tmp_path, monkeypatch):
    """The deadline starts before the bundle is parsed: on a patched clock,
    parsing that outlasts the budget stops the first engine run."""
    now = [0.0]
    parse = cli.parse_program

    def slow_parse(text):
        now[0] += 10.0
        return parse(text)

    monkeypatch.setattr(reach, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(cli, "parse_program", slow_parse)
    sizes = _count_runs(monkeypatch)
    code, _ = _run(bundles_dir, tmp_path / "roomy", "photoquote_exception",
                   "--max-seconds", "20")
    assert code == EXIT_FINDINGS
    sizes.clear()
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--max-seconds", "5")
    assert code == EXIT_RESOURCE_LIMIT
    _assert_partial(out, "max-seconds")
    assert len(sizes) == 1

def test_internal_error_exits_four_without_reports(bundles_dir, tmp_path,
                                                   monkeypatch, capsys):
    def broken(results):
        raise RuntimeError("broken\nextraction")

    monkeypatch.setattr(cli, "extract_findings", broken)
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception")
    assert code == EXIT_INTERNAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == "pdcfa: internal error: RuntimeError: broken extraction\n"


def test_an_internal_error_after_the_dot_removes_it(bundles_dir, tmp_path,
                                                   monkeypatch, capsys):
    """The DOT is written before the flow report is built: an internal
    error while building it exits 4 and removes the DOT."""
    def broken(*args):
        raise RuntimeError("broken report")

    monkeypatch.setattr(cli.report_mod, "emit_flow_report", broken)
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception")
    assert code == EXIT_INTERNAL
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert err == "pdcfa: internal error: RuntimeError: broken report\n"


def test_unwritable_out_exits_two(bundles_dir, tmp_path, capsys):
    """An output directory that cannot be made is the caller's error."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    code = main(["--bundle", str(bundles_dir / "perm_over"),
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"pdcfa: error: cannot write reports to {out}: Not a directory\n")


def test_nested_unknown_class_exits_two_at_parse_time(bundles_dir, tmp_path,
                                                      capsys):
    bundle = tmp_path / "ghost"
    shutil.copytree(bundles_dir / "perm_zero", bundle)
    program = bundle / "app.sdex"
    program.write_text(program.read_text().replace(
        "     (return void))))",
        "     (assign o (new java/lang/String))\n"
        "     (assign b (and (instance-of o app/Ghost) true))\n"
        "     (return void))))"))
    code = main(["--bundle", str(bundle), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "undeclared class app/Ghost in pz/App.onStart at 11:6" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_entry_point_declared_twice_in_one_unit_exits_two(
        bundles_dir, tmp_path, capsys):
    bundle = tmp_path / "twice"
    shutil.copytree(bundles_dir / "perm_over", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    (unit,) = manifest["units"]
    unit["entryPoints"] *= 2
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    code = main(["--bundle", str(bundle), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert ("unit AppUnit declares entry point po/App.onStart() twice"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


GOTO_INTO_REGION = (
    "     (goto inside)\n"
    "     (push-handler java/lang/Exception catch)\n"
    "     (label inside)\n"
    "     (assign a 1)\n"
    "     (pop-handler)\n"
    "     (return void)\n"
    "     (label catch)\n"
    "     (return void))))",
    "branch to inside enters or leaves a handler region in pz/App.onStart "
    "at 10:6")
UNMATCHED_POP = (
    "     (assign a 1)\n"
    "     (pop-handler)\n"
    "     (return void))))",
    "pop-handler without an open push-handler in pz/App.onStart at 11:6")
CATCH_INTO_REGION = (
    "     (push-handler java/lang/Exception h)\n"
    "     (assign e (new java/lang/Exception))\n"
    "     (throw e)\n"
    "     (label h)\n"
    "     (pop-handler)\n"
    "     (return void))))",
    "catch label h enters a closed handler region in pz/App.onStart at 10:6")
CATCH_INTO_NESTED_REGION = (
    "     (push-handler java/lang/Exception out)\n"
    "     (push-handler java/lang/Exception h)\n"
    "     (assign e (new java/lang/Exception))\n"
    "     (throw e)\n"
    "     (pop-handler)\n"
    "     (push-handler java/lang/Exception out)\n"
    "     (label h)\n"
    "     (pop-handler)\n"
    "     (pop-handler)\n"
    "     (return void)\n"
    "     (label out)\n"
    "     (return void))))",
    "catch label h enters a closed handler region in pz/App.onStart at 11:6")


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
@pytest.mark.parametrize("body,message", [
    GOTO_INTO_REGION, UNMATCHED_POP, CATCH_INTO_REGION,
    CATCH_INTO_NESTED_REGION], ids=[
    "goto-into-region", "unmatched-pop-handler", "catch-into-region",
    "catch-into-nested-region"])
def test_handler_bracketing_errors_exit_two_at_parse_time(
        bundles_dir, tmp_path, capsys, mode, body, message):
    bundle = tmp_path / "bracket"
    shutil.copytree(bundles_dir / "perm_zero", bundle)
    program = bundle / "app.sdex"
    program.write_text(
        program.read_text().replace("     (return void))))", body)
        + "\n(public class java/lang/Exception extends java/lang/Object () ())\n")
    code = main(["--bundle", str(bundle), "--mode", mode,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_where_filter_applies(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--where", "sinkKindIs(network)")
    assert code == EXIT_CLEAN  # the only finding is an intent sink
    doc = json.loads((out / "flow_report.json").read_text())
    assert doc["findingCount"] == 0
    assert doc["predicate"] == "sinkKindIs(network)"


def test_predicate_arguments_may_hold_the_word_and(bundles_dir, tmp_path):
    """In ``--where`` and in the manifest's ``predicates``, only an ``and``
    between atoms joins them."""
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--where", "classIs(com/and/Foo)")
    assert code == EXIT_CLEAN
    doc = json.loads((out / "flow_report.json").read_text())
    assert doc["predicate"] == "classIs(com/and/Foo)"
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "photoquote_exception", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["predicates"] = ["methodIs(and)"]
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "manifest-out"
    assert main(["--bundle", str(bundle), "--out", str(out)]) == EXIT_CLEAN
    doc = json.loads((out / "flow_report.json").read_text())
    assert (doc["predicate"], doc["findingCount"]) == ("methodIs(and)", 0)


def test_permission_gap_reports(bundles_dir, tmp_path):
    _code, out = _run(bundles_dir, tmp_path, "perm_over")
    doc = json.loads((out / "permissions_report.json").read_text())
    assert doc["overPrivileged"] == ["SEND_SMS"]
    assert doc["missing"] == []
    _code, out2 = _run(bundles_dir, tmp_path / "z", "perm_zero")
    doc2 = json.loads((out2 / "permissions_report.json").read_text())
    assert doc2["missing"] == ["INTERNET"]
    assert doc2["overPrivileged"] == []


def test_load_bundle_resolves_paths(bundles_dir):
    bundle = load_bundle(bundles_dir / "photoquote_exception")
    assert bundle.app_name == "photoquote"
    assert bundle.program.classes  # parsed
    assert bundle.summaries.records
    assert bundle.requested_permissions == frozenset()


def test_log_env_var(bundles_dir, tmp_path):
    import os
    import subprocess
    import sys

    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "pdcfa.cli",
         "--bundle", str(bundles_dir / "perm_zero"), "--out", str(out)],
        env={**os.environ, "PDCFA_LOG": "DEBUG"},
        capture_output=True, text=True)
    assert proc.returncode == EXIT_CLEAN
    assert (out / "flow_report.json").is_file()


def test_log_env_var_takes_only_level_names(bundles_dir, tmp_path,
                                            monkeypatch):
    """``PDCFA_LOG`` sets the level it names, in any case; any other value,
    another name in ``logging`` too, leaves WARNING and the run's verdict
    stands."""
    levels = []
    monkeypatch.setattr(logging, "basicConfig",
                        lambda **kwargs: levels.append(kwargs["level"]))
    for value in ("debug", "WARN", "Critical", "BASIC_FORMAT", "nonsense",
                  "10", ""):
        monkeypatch.setenv("PDCFA_LOG", value)
        cli._configure_logging()
    assert levels == [logging.DEBUG, logging.WARNING, logging.CRITICAL,
                      logging.WARNING, logging.WARNING, logging.WARNING,
                      logging.WARNING]
    proc = subprocess.run(
        [sys.executable, "-m", "pdcfa.cli",
         "--bundle", str(bundles_dir / "perm_zero"),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PDCFA_LOG": "BASIC_FORMAT"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CLEAN, proc.stderr
    assert proc.stderr == ""


def test_saturation_logs_the_fixpoint_run_and_the_views(
        bundles_dir, tmp_path, caplog):
    """At INFO, ``pdcfa.eps`` logs the fixpoint run's size and rounds and
    then how many entry-point views it has and their summed nodes, read
    from the run's masks. Logging moves no report byte."""
    _run(bundles_dir, tmp_path / "quiet", "photoquote_full")
    caplog.set_level(logging.INFO, logger="pdcfa.eps")
    _run(bundles_dir, tmp_path / "logged", "photoquote_full")
    assert [r.getMessage() for r in caplog.records
            if r.name == "pdcfa.eps"] == [
        "fixpoint run: 63 states, 62 edges, 6 epsilon summaries, "
        "globalRounds 2",
        "views: 6, 72 nodes"]
    for name in REPORT_FILES:
        assert ((tmp_path / "quiet" / "out" / name).read_bytes()
                == (tmp_path / "logged" / "out" / name).read_bytes()), name
    metas = [json.loads((tmp_path / run / "out" / "run_meta.json").read_text())
             for run in ("quiet", "logged")]
    for meta in metas:
        del meta["elapsedSeconds"]
    assert metas[0] == metas[1]


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_reports_byte_equal_across_hash_seeds(bundles_dir, tmp_path, mode):
    """Key types cache their hash; nothing that reaches a report may depend
    on hash values, which change with PYTHONHASHSEED."""
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "pdcfa.cli",
             "--bundle", str(bundles_dir / "three_unit_relay"),
             "--mode", mode, "--k", "1", "--out", str(out)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode in (EXIT_CLEAN, EXIT_FINDINGS), proc.stderr
        runs.append((proc.returncode, proc.stdout,
                     [(out / name).read_bytes() for name in REPORT_FILES]))
    assert runs[0] == runs[1]


def test_closed_stdout_pipe_keeps_the_verdict_exit_code(bundles_dir, tmp_path):
    """``pdcfa ... | head`` closes the pipe before the text summaries are
    printed; every report is already written, so the exit code is the
    verdict's, not an internal error's."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdcfa.cli",
         "--bundle", str(bundles_dir / "photoquote_full"), "--out", str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader goes away before anything is printed
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_FINDINGS, err
    assert b"internal error" not in err
    for name in (*REPORT_FILES, "run_meta.json"):
        assert (out / name).is_file()


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_broken_pipe_while_printing_exits_with_the_verdict(
        bundles_dir, tmp_path, monkeypatch, capsys):
    with open(tmp_path / "stdout", "wb") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(target.fileno()))
        code, out = _run(bundles_dir, tmp_path, "photoquote_full")
        monkeypatch.undo()
    assert code == EXIT_FINDINGS
    assert "internal error" not in capsys.readouterr().err
    for name in REPORT_FILES:
        assert (out / name).is_file()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_input_digests_are_of_the_bytes_analysed(bundles_dir, tmp_path,
                                                 newline):
    """Each report's ``inputs`` digests are the SHA-256 of the files as they
    lie on disk, and a bundle written with CRLF line ends is analysed as
    the LF one: its reports differ from the shipped bundle's in those
    digests alone."""
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "photoquote_full", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    names = {"manifestSha256": "manifest.json",
             "programSha256": manifest["program"],
             "summariesSha256": manifest["summaries"]}
    for name in names.values():
        text = (bundle / name).read_text()
        (bundle / name).write_bytes(text.replace("\n", newline).encode())
    expected = {key: hashlib.sha256((bundle / name).read_bytes()).hexdigest()
                for key, name in names.items()}
    code, shipped = _run(bundles_dir, tmp_path / "shipped", "photoquote_full")
    assert code == EXIT_FINDINGS
    assert main(["--bundle", str(bundle),
                 "--out", str(tmp_path / "out")]) == EXIT_FINDINGS
    for report in ("flow_report.json", "permissions_report.json",
                   "heatmap.json", "run_meta.json"):
        doc = json.loads((tmp_path / "out" / report).read_text())
        assert doc.pop("inputs") == expected, report
        shipped_doc = json.loads((shipped / report).read_text())
        shipped_doc.pop("inputs")
        if report == "run_meta.json":
            doc.pop("elapsedSeconds")
            shipped_doc.pop("elapsedSeconds")
        assert doc == shipped_doc, report
    assert (tmp_path / "out" / "state_graph.dot").read_bytes() \
        == (shipped / "state_graph.dot").read_bytes()


def test_input_digests_are_taken_before_a_file_changes_mid_run(
        bundles_dir, tmp_path, monkeypatch):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundles_dir / "perm_zero", bundle)
    program = bundle / json.loads(
        (bundle / "manifest.json").read_text())["program"]
    analysed = hashlib.sha256(program.read_bytes()).hexdigest()
    parse = cli.parse_program

    def parse_then_edit(text):
        program.write_text(text + "; edited after parsing\n")
        return parse(text)

    monkeypatch.setattr(cli, "parse_program", parse_then_edit)
    out = tmp_path / "out"
    assert main(["--bundle", str(bundle), "--out", str(out)]) == EXIT_CLEAN
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["inputs"]["programSha256"] == analysed


def test_a_run_triggers_no_automatic_collection(tmp_path, monkeypatch):
    """``main`` pauses automatic garbage collection for the run: on the
    wide-pushdown bundle (synth 6x8x3x2, seed 1), where the collector used
    to start about 56 passes, it starts none, and it is on again after."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    bundle = synth.generate(synth.Shape.parse("6x8x3x2"),
                            1).write(tmp_path / "bundle")
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        code = main(["--bundle", str(bundle), "--out", str(tmp_path / "out")])
    finally:
        gc.callbacks.remove(record)
    assert code == EXIT_FINDINGS
    assert passes == []
    assert gc.isenabled()


def _failing_extraction(results):
    raise RuntimeError("broken extraction")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("bundle, extra, exit_code", [
    ("perm_over", (), EXIT_CLEAN),
    ("photoquote_exception", (), EXIT_FINDINGS),
    ("missing", (), EXIT_USAGE),
    ("photoquote_exception", ("--max-states", "2"), EXIT_RESOURCE_LIMIT),
    ("photoquote_exception", None, EXIT_INTERNAL),
])
def test_a_run_leaves_the_collector_as_it_found_it(
        bundles_dir, tmp_path, monkeypatch, bundle, extra, exit_code,
        enabled):
    """On every exit code, and with the collector on or off when it is
    called, ``main`` leaves ``gc.isenabled()`` as it was. ``extra`` None
    makes the findings extraction fail."""
    if extra is None:
        monkeypatch.setattr(cli, "extract_findings", _failing_extraction)
        extra = ()
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _ = _run(bundles_dir, tmp_path, bundle, *extra)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == exit_code


def test_the_json_reports_are_written_once_findings_and_graph_are_freed(
        bundles_dir, tmp_path, monkeypatch):
    """By the first JSON write, reference counting alone (the collector is
    paused) has freed the findings and the fixpoint graph: the run drops
    them, and no cycle holds them."""
    refs, alive = [], []
    emit, export = cli.report_mod.emit_flow_report, cli.report_mod.export_graph
    writer = cli.report_mod.to_json_bytes

    def exporting(result, *args):
        refs.append(weakref.ref(result))
        return export(result, *args)

    def emitting(findings, *args):
        refs.extend(weakref.ref(f) for f in findings)
        return emit(findings, *args)

    def writing(doc, fh=None):
        alive.append(sum(ref() is not None for ref in refs))
        return writer(doc, fh)

    monkeypatch.setattr(cli.report_mod, "export_graph", exporting)
    monkeypatch.setattr(cli.report_mod, "emit_flow_report", emitting)
    monkeypatch.setattr(cli.report_mod, "to_json_bytes", writing)
    code, _ = _run(bundles_dir, tmp_path, "photoquote_full")
    assert code == EXIT_FINDINGS
    assert len(refs) > 1 and alive == [0, 0, 0, 0]


def test_flag_defaults_are_the_analysis_config_defaults(capsys):
    """The parser reads its run defaults from ``AnalysisConfig`` and states
    them in ``--help``."""
    args = cli.build_arg_parser().parse_args(["--bundle", "b", "--out", "o"])
    assert reach.AnalysisConfig(
        mode=args.mode, k=args.k, heap_context=args.heap_context,
        max_states=args.max_states,
        max_seconds=args.max_seconds) == reach.AnalysisConfig()
    with pytest.raises(SystemExit):
        cli.build_arg_parser().parse_args(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    d = reach.AnalysisConfig()
    for flag, value in (("--mode", d.mode), ("--k", d.k),
                        ("--max-states", d.max_states),
                        ("--max-seconds", d.max_seconds)):
        assert re.search(rf"{flag} \S+ [^()]*\(default: {value}\)", text), flag
