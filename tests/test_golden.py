"""Golden report bytes: every shipped bundle under both engines at k = 0..2,
the two generated benchmark bundles at their pinned seed, the wide-pushdown
shape at other seeds and ``k``, and one finite bundle with many findings.

The SHA-256 digests of the shipped and benchmark bundles live in
``bench/reference.json``, which the benchmark checks as well; the generated
bundles come from ``bench/synth.py``. These tests only read those files. The
digests of the other configurations are pinned here. ``heatmap.json`` sums
the triggers' visits read from the fixpoint run's root masks
(``reach.RootMasks.visits``): a node counts once for each trigger's part
that holds it, or, at a stack-dependent node, once for each frame whose
mask holds the part. So these digests move when the graph or its masks
change, not with the engines' enqueue order.
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


def _synth_run(shape, seed, mode, k, tmp_path, monkeypatch) -> tuple:
    """Exit code and report digests of one run on a generated bundle."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    bundle = synth.generate(synth.Shape.parse(shape),
                            seed).write(tmp_path / "bundle")
    out = tmp_path / "out"
    code = main(["--bundle", str(bundle), "--mode", mode, "--k", str(k),
                 "--out", str(out)])
    return code, {report: hashlib.sha256((out / report).read_bytes())
                  .hexdigest() for report in REPORTS}


@pytest.mark.parametrize("workload", ["finite-witness", "wide-pushdown"])
def test_synth_reports_match_pinned_digests(workload, tmp_path, monkeypatch):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    code, digests = _synth_run(ref["shape"], ref["seed"], ref["mode"],
                               ref["k"], tmp_path, monkeypatch)
    assert code == EXIT_FINDINGS
    assert digests == ref["digests"]


# (seed, k) -> report digests of synth 6x8x3x2 under pushdown
PUSHDOWN_PINS = {
    (7, 1): {
        "flow_report.json": "12cd2e5c0634bb222fb36681e1f33c159f85e9802395c6b3b270ae6c6039ab75",
        "permissions_report.json": "6ef45ad861088b13f05c0c5fb5e5c968043316938784e39218d2a2e988b4b560",
        "heatmap.json": "56b9772ec8911afe2e9642d89ad07fcd90d5777bcbb4f062761fccb0318632f7",
        "state_graph.dot": "87271a62b7979eac4b05f498f74179f888c168c15b69bb988ee1eaec0de9b971",
    },
    (1, 0): {
        "flow_report.json": "b0dbd4b08e847b44823673acab2f1b45c50f57f9d434b95aec7a3697de7dea80",
        "permissions_report.json": "e4690d5cd42797f99f0e3432803c05982e9912d1306da5c759200fbb82e3e54e",
        "heatmap.json": "294e1a15ba3f48359812dcbb2ec191c255ef14d1059442c8085a317a1adcc0a7",
        "state_graph.dot": "8c9e98586ace2c466c37ed014df0e8d04e2b2e902ceb6d3d615c8c1e3dd30c2f",
    },
    (1, 2): {
        "flow_report.json": "41667fc3992b1acda27f0d26df0ca97b0497f5d235778daa63d4aee0b1993b5f",
        "permissions_report.json": "82c4b2572011ec596b58361f1f0edb894afa53d32bfcb2e801f20bd9d44eeca7",
        "heatmap.json": "aae9d2f33e0bedf6ca77ca99a0d7d0971f04543fa98ba06776740473e74223a3",
        "state_graph.dot": "b6f16fbcc65012097bddb60d2078e7d80796dca132e4e2c3227659a1281e5dbe",
    },
}


@pytest.mark.parametrize("seed,k", sorted(PUSHDOWN_PINS))
def test_wide_pushdown_reports_match_pins_at_other_seeds_and_k(
        seed, k, tmp_path, monkeypatch):
    code, digests = _synth_run("6x8x3x2", seed, "pushdown", k, tmp_path,
                               monkeypatch)
    assert code == EXIT_FINDINGS
    assert digests == PUSHDOWN_PINS[(seed, k)]


# report digests of synth 4x6x3x2 under finite, k=1, seed 1: 4,096 findings
# whose witnesses share segments, and a 16.7 MB flow report full of shared
# state references
FINITE_MANY_FINDINGS_PIN = {
    "flow_report.json": "c38f1c7ffdbd52e93c4008029f418a5c491912ebc14b0a451ac51b2646c443c4",
    "permissions_report.json": "047b69d18554f32eeb0afb173bd1998fbfefe4fd4cb969cdf272733daadae1a9",
    "heatmap.json": "cb00ef55d620c5fb80bc78835d1dc5b956c09795049daa68ddb9fffe9c8cdc43",
    "state_graph.dot": "1a9b2861c3e7139dfc9b2fb358cae52abea07d469d53aeb177cd7d463bc53a06",
}


def test_finite_bundle_with_many_findings_matches_pin(tmp_path, monkeypatch):
    code, digests = _synth_run("4x6x3x2", 1, "finite", 1, tmp_path,
                               monkeypatch)
    assert code == EXIT_FINDINGS
    assert digests == FINITE_MANY_FINDINGS_PIN
