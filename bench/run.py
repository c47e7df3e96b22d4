"""pdcfa benchmark: time to a verdict per app bundle, end to end and per layer.

    python3 bench/run.py --workload wide-pushdown --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in one child process
(``bench/worker.py``): a closed loop with one caller that calls
``pdcfa.cli.main`` in-process for ``--seconds``. With ``--trace 0`` this
prints the end-to-end metrics:

- ``analysis_ref_s``: the median over samples of one analysis's wall
  seconds (one pass's on ``corpus``), scaled to the reference machine
  speed. This host's speed switches between states about 1.8x apart, for
  seconds to minutes, so plain wall medians of separate runs disagree by up
  to a quarter. ``calibrate()`` (``bench/calibration.py``) is timed before
  each sample and after the last; a sample's scale is the reference
  calibration time (``bench/reference.json``) over the mean of the two
  around it. The plain median ``analysis_s``, its sample count and, where
  there are enough samples, the highest percentile with ten samples beyond
  it are printed as well;
- ``peak_rss_mb``: the worker's peak RSS;
- ``setup_s``: the median wall seconds of a fresh ``python -m pdcfa.cli``
  process on the smallest shipped bundle, scaled the same way.

With ``--trace 1`` it prints the per-layer metrics of a traced run instead.
The metric names and units are the ones ``BENCHMARK.json`` lists. The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate
from workloads import BUNDLES, REFERENCE, ROOT, WORKLOADS, digests, \
    load_reference

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 7
SETUP_CONFIG = "perm_zero pushdown k=1"


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _check_layout():
    for need in (ROOT / "src" / "pdcfa" / "cli.py", BUNDLES / "perm_zero",
                 ROOT / "BENCHMARK.json", REFERENCE):
        if not need.exists():
            raise BenchError(f"{need.relative_to(ROOT)} is missing; run from "
                             "the root of a pdcfa checkout")


def percentile(samples: list) -> tuple | None:
    """The highest whole percentile above the median with at least ten
    samples beyond it, and its nearest-rank value."""
    n = len(samples)
    p = int(100 * (1 - 10 / n)) if n > 10 else 0
    if p <= 50:
        return None
    rank = max(1, -(-p * n // 100))
    return p, sorted(samples)[rank - 1]


def scale(samples: list, calibration: list) -> list:
    """Each sample's seconds at the reference machine speed: times the
    reference calibration time over the mean of the calibrations timed
    just before and just after it."""
    ref = load_reference()["calibration_s"]
    return [s * 2 * ref / (c0 + c1)
            for s, c0, c1 in zip(samples, calibration, calibration[1:])]


def _setup(workdir: Path) -> tuple:
    """Wall seconds of fresh CLI processes, their calibrations, and how
    many of them failed."""
    pinned = load_reference()["corpus"][SETUP_CONFIG]
    times, calibration, failed = [], [calibrate()], 0
    for i in range(SETUP_RUNS):
        out = workdir / f"setup{i}"
        argv = [sys.executable, "-m", "pdcfa.cli", "--bundle",
                str(BUNDLES / "perm_zero"),
                "--mode", "pushdown", "--k", "1", "--out", str(out)]
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        proc = subprocess.run(argv, cwd=ROOT, env=_env(),
                              stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        calibration.append(calibrate())
        failed += proc.returncode != pinned["exit_code"] \
            or digests(out) != pinned["digests"]
    return times, calibration, failed


def _layer_metrics(res: dict) -> dict:
    """Per-layer metrics from the traced samples: times (floats) as means,
    so that the self times add up to ``trace.analysis_s``; counters (ints),
    which the worker checked are equal in every sample, as they are."""
    traced = res["traced"]
    first = traced[0]
    m = {k: (statistics.fmean(s[k] for s in traced), "s")
         if isinstance(v, float) else (v, "count") for k, v in first.items()}
    m["eps.runs_per_entry"] = (first["eps.engine_runs"]
                               / first["eps.entry_points"], "ratio")
    m["reach.unique_state_ratio"] = (first["reach.states_unique"]
                                     / first["reach.states_summed"], "ratio")
    m["machine.store_grow_ratio"] = (first["machine.store_grows"]
                                     / first["machine.store_joins"], "ratio")
    traced_s, plain_s = m["analysis_s"][0], statistics.fmean(res["samples"])
    m["trace.analysis_s"] = (traced_s, "s")
    m["trace.untraced_s"] = (plain_s, "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    return m


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = _spec()
    workdir = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = workdir / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--workdir", str(workdir),
               "--result", str(result)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_env(),
                                  stdout=subprocess.DEVNULL,
                                  timeout=seconds + 120)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish: {exc}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        res = json.loads(result.read_text(encoding="utf-8"))
        attempted, failed = res["attempted"], res["failed"]
        samples = res["samples"]
        print(f"workload {workload}, seed {seed}: {len(samples)} untraced "
              f"sample(s) of {res['jobs']} analysis(es) each")
        if trace:
            figures = _layer_metrics(res)
            wanted = spec["per_layer"]
            print(f"  {len(res['traced'])} traced sample(s), alternating with "
                  "the untraced ones")
        else:
            setup, setup_cal, setup_failed = _setup(workdir)
            attempted += SETUP_RUNS
            failed += setup_failed
            cal = res["calibration"]
            figures = {
                "analysis_ref_s": (statistics.median(scale(samples, cal)),
                                   "s"),
                "peak_rss_mb": (peak_mb, "MB"),
                "setup_s": (statistics.median(scale(setup, setup_cal)), "s")}
            wanted = spec["end_to_end"]
            pct = percentile(samples)
            print(f"  analysis_s {statistics.median(samples):.6g} s, median "
                  f"wall time of {len(samples)} samples"
                  + (f"; p{pct[0]} {pct[1]:.6g} s" if pct else
                     "; too few samples for a percentile above the median"))
            print(f"  setup wall time {statistics.median(setup):.6g} s, "
                  f"median of {SETUP_RUNS} fresh processes")
            print(f"  calibration median {statistics.median(cal):.4g} s, "
                  f"reference {load_reference()['calibration_s']} s")
        metrics = {}
        for m in wanted:
            value, unit = figures[m["name"]]
            if unit != m["unit"]:
                raise BenchError(f"{m['name']} is in {unit}, BENCHMARK.json "
                                 f"says {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}
            print(f"  {m['name']:<26} {value:>14.6g} {unit}")
        print(f"  failed_frac {failed / attempted:.4g} "
              f"({failed} of {attempted} analyses failed)")
        for p in res["problems"]:
            print(f"  problem: {p}")
        return {"correct": failed == 0 and not res["problems"],
                "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each reads only its own worker's RSS
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for w in WORKLOADS]
        return max(codes)
    try:
        _check_layout()
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
