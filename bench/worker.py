"""One workload's closed loop: one caller, no threads, in one process.

Each sample calls ``pdcfa.cli.main`` in-process once per job of the
workload, with a fresh ``--out`` directory each time, until ``--seconds``
have passed; only the ``main`` calls are timed. Outputs are checked after
each call, outside the timed region. With ``--trace 1`` untraced and traced
samples alternate, so the tracing overhead is measured under the same
conditions. With ``--trace 0`` the worker times ``calibrate()``, a fixed
piece of pure-Python work, before each sample and after the last one. The
figures go to ``--result`` as JSON; ``run.py`` starts this process and
reports them.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import shutil
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pdcfa  # noqa: E402
import pdcfa.cli as cli  # noqa: E402

import workloads  # noqa: E402
from calibration import calibrate  # noqa: E402
from tracing import COUNTERS, SELF_BUCKETS, Tracer  # noqa: E402


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def _call(argv, tracer=None):
    """Run the CLI once with its terminal output discarded."""
    with redirect_stdout(_Discard()):
        if tracer is not None:
            return tracer.root(cli.main, argv)
        return cli.main(argv)


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    if not Path(pdcfa.__file__).resolve().is_relative_to(BENCH.parent / "src"):
        raise RuntimeError(f"imported pdcfa from {pdcfa.__file__}, "
                           "not from this checkout")
    jobs = workloads.prepare(workload, seed, workdir, _call)
    checker = workloads.Checker()
    # Lazy imports (jsonschema) happen here, untimed; setup_s covers them.
    _call(["--bundle", str(workloads.BUNDLES / "perm_zero"),
           "--out", str(workdir / "warm")])
    tracer = Tracer() if trace else None
    plain, calibration, attempted, failed, problems = [], [], 0, 0, []
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        traced = trace and n % 2 == 1
        gc.collect()  # each sample starts from a collected heap, untimed
        if traced:
            tracer.install()
        elif not trace:
            calibration.append(calibrate())
        total = 0.0
        try:
            for job in jobs:
                out = workdir / f"out{n}"
                t0 = time.perf_counter()
                try:
                    rc = _call(job.argv(out), tracer if traced else None)
                except Exception:
                    rc = "exception: " + traceback.format_exc(limit=3)
                total += time.perf_counter() - t0
                attempted += 1
                found = [f"{job.name}: {rc}"] if isinstance(rc, str) \
                    else checker.check(job, rc, out)
                if found:
                    failed += 1
                    problems += found[:3]
                shutil.rmtree(out, ignore_errors=True)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            fig = tracer.end_sample()
            gap = abs(sum(fig[b] for b in SELF_BUCKETS) - fig["analysis_s"])
            if gap > 1e-6 * fig["analysis_s"]:
                problems.append(f"layer self times miss analysis_s by "
                                f"{gap:.3g} s")
        else:
            plain.append(total)
        n += 1
        if time.perf_counter() >= deadline and (not trace or n >= 2):
            break
    if not trace:
        calibration.append(calibrate())  # the last sample's closing bracket
    result = {"workload": workload, "seed": seed, "jobs": len(jobs),
              "samples": plain, "calibration": calibration,
              "attempted": attempted, "failed": failed}
    if trace:
        for name in COUNTERS:
            values = sorted({s[name] for s in tracer.samples})
            if len(values) != 1:
                problems.append(f"counter {name} differs between samples: "
                                f"{values}")
        result["traced"] = tracer.samples
        traces = workloads.ROOT / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(traces / f"{workload}-seed{seed}.json",
                           {"workload": workload, "seed": seed})
    result["problems"] = problems[:20]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 Path(args.workdir))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
