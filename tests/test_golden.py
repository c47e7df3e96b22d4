"""Golden report bytes: every shipped bundle under both engines at k = 0..2,
and the two generated benchmark bundles at their pinned seed.

The pinned SHA-256 digests live in ``bench/reference.json``, which the
benchmark checks as well; the generated bundles come from
``bench/synth.py``. These tests only read those files.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pdcfa.cli import EXIT_FINDINGS, main

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = BENCH / "reference.json"
REPORTS = ("flow_report.json", "permissions_report.json", "heatmap.json",
           "state_graph.dot")


def test_corpus_reports_match_pinned_digests(bundles_dir, tmp_path):
    pinned = json.loads(REFERENCE.read_text(encoding="utf-8"))["corpus"]
    assert len(pinned) == 30
    failures = []
    for i, (name, ref) in enumerate(sorted(pinned.items())):
        bundle, mode, k = name.split()
        out = tmp_path / str(i)
        code = main(["--bundle", str(bundles_dir / bundle), "--mode", mode,
                     "--k", k.removeprefix("k="), "--out", str(out)])
        if code != ref["exit_code"]:
            failures.append(f"{name}: exit {code}, expected {ref['exit_code']}")
        for report in REPORTS:
            digest = hashlib.sha256((out / report).read_bytes()).hexdigest()
            if digest != ref["digests"][report]:
                failures.append(f"{name}: {report} differs")
    assert not failures, failures


@pytest.mark.parametrize("workload", ["finite-witness", "wide-pushdown"])
def test_synth_reports_match_pinned_digests(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    bundle = synth.generate(synth.Shape.parse(ref["shape"]),
                            ref["seed"]).write(tmp_path / "bundle")
    out = tmp_path / "out"
    code = main(["--bundle", str(bundle), "--mode", ref["mode"],
                 "--k", str(ref["k"]), "--out", str(out)])
    assert code == EXIT_FINDINGS
    for report in REPORTS:
        digest = hashlib.sha256((out / report).read_bytes()).hexdigest()
        assert digest == ref["digests"][report], report
