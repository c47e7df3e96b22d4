"""Command-line front-end tests: exit codes, outputs, flags."""

import json

from pdcfa.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_RESOURCE_LIMIT,
    EXIT_USAGE,
    load_bundle,
    main,
)
from pdcfa.report import validate_document

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


def test_bad_predicate_exit_two(bundles_dir, tmp_path):
    code, _ = _run(bundles_dir, tmp_path, "perm_over",
                   "--where", "bogus(1)")
    assert code == EXIT_USAGE


def test_invalid_k_exit_two(bundles_dir, tmp_path):
    code, _ = _run(bundles_dir, tmp_path, "perm_over", "--k", "9")
    assert code == EXIT_USAGE


def test_resource_limit_exit_three(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--max-states", "2")
    assert code == EXIT_RESOURCE_LIMIT
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["complete"] is False
    assert meta["limitReason"] == "max-states"
    perm = json.loads((out / "permissions_report.json").read_text())
    assert perm["lowerBound"] is True


def test_where_filter_applies(bundles_dir, tmp_path):
    code, out = _run(bundles_dir, tmp_path, "photoquote_exception",
                     "--where", "sinkKindIs(network)")
    assert code == EXIT_CLEAN  # the only finding is an intent sink
    doc = json.loads((out / "flow_report.json").read_text())
    assert doc["findingCount"] == 0
    assert doc["predicate"] == "sinkKindIs(network)"


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
