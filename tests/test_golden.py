"""Golden report bytes: every shipped bundle under both engines at k = 0..2.

The pinned SHA-256 digests live in the ``corpus`` section of
``bench/reference.json``, which the benchmark checks as well; this test only
reads that file.
"""

import hashlib
import json
from pathlib import Path

from pdcfa.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
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
