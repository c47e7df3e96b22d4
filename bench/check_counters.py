"""Check that the deterministic work counters repeat exactly across runs and
across ``PYTHONHASHSEED`` values.

    python3 bench/check_counters.py --seed 1

For each workload this runs the worker three times, one traced sample each,
under three hash seeds, and prints every counter that differs. Exit code 0
means all counters were equal.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

HASH_SEEDS = ("0", "1", "2")


def counters(workload: str, seed: int, hash_seed: str) -> dict:
    workdir = run.ROOT / ".bench_work" / f"counters-{workload}-h{hash_seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = workdir / "result.json"
        env = {**run._env(), "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, str(run.BENCH / "worker.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", "0", "--trace", "1",
                        "--workdir", str(workdir), "--result", str(result)],
                       cwd=run.ROOT, env=env, check=True, timeout=600)
        res = json.loads(result.read_text(encoding="utf-8"))
        if res["failed"] or res["problems"]:
            raise RuntimeError(f"{workload}: {res['problems']}")
        # counters are the integer figures; times are floats
        return {k: v for k, v in res["traced"][0].items()
                if isinstance(v, int)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    differ = 0
    for workload in run.WORKLOADS:
        runs = {h: counters(workload, args.seed, h) for h in HASH_SEEDS}
        first = runs[HASH_SEEDS[0]]
        bad = [k for k in first if len({r.get(k) for r in runs.values()}) > 1]
        differ += len(bad)
        summary = ", ".join(f"{k}={v}" for k, v in first.items())
        print(f"{workload}: " + (f"DIFFER: {bad}" if bad else summary))
        for k in bad:
            print(f"  {k}: " + ", ".join(f"PYTHONHASHSEED={h}: {r.get(k)}"
                                         for h, r in runs.items()))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
