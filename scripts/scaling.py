"""The end-to-end scaling record: one fresh ``pdcfa`` process per shape.

    python3 scripts/scaling.py
    python3 scripts/scaling.py --shapes 2x4x3x2 --out /tmp/BENCH_scaling.json

Run from any directory; the script analyses with the ``src/`` of the
checkout it lives in. For each (shape, engine) it generates the synthetic
bundle with ``bench/synth.py`` (seed 1) and runs ``python -m pdcfa.cli`` on
it at k=1 with ``--max-states 1000000000``, in a fresh child process, one
at a time. Each child runs under an address-space cap of 5 GiB
(``resource.setrlimit(RLIMIT_AS)``, set in the child before it starts) and
a wall timeout of 900 s, so that a shape which outgrows the host fails on
its own instead of taking the machine down.

Each run records its wall seconds, the child's peak RSS (``ru_maxrss``
from ``os.wait4``), its exit code or the signal that ended it, whether the
timeout killed it, ``findingCount`` from ``run_meta.json`` and the size of
each report file. A run that did not finish is recorded with how it ended
and the last line it printed to stderr.

A host's speed can change by up to 1.8x between minutes, so each run also
records the time of ``bench/calibration.py``'s ``calibrate()`` just before
and just after it, and ``refSeconds``: its wall seconds scaled to the
reference calibration time in ``bench/reference.json``, as ``bench/run.py``
scales ``analysis_ref_s``. The output, ``BENCH_scaling.json`` by default,
also holds the host and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# the shapes of the ROADMAP's State table
SHAPES = {"pushdown": ("6x8x3x2", "8x10x4x4", "12x14x6x4"),
          "finite": ("6x8x3x2", "8x10x4x4", "10x12x5x4")}
REPORTS = ("flow_report.json", "permissions_report.json", "heatmap.json",
           "state_graph.dot", "run_meta.json")
SEED, K, MAX_STATES = 1, 1, 10**9
CAP_BYTES, TIMEOUT_S = 5 * 2**30, 900.0  # each child's address space, wall


def _host() -> dict:
    mem = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "memTotalMiB": mem}


def _calibration() -> float:
    """The median of three ``calibrate()`` times on this host, now."""
    from calibration import calibrate

    return statistics.median(calibrate() for _ in range(3))


def _bundle(shape: str, root: Path) -> Path:
    import synth

    return synth.generate(synth.Shape.parse(shape), SEED).write(root / shape)


def _run(bundle: Path, mode: str, out: Path, reference: float) -> dict:
    """One capped child process; its figures and how it ended."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "pdcfa.cli", "--bundle", str(bundle),
            "--mode", mode, "--k", str(K), "--max-states", str(MAX_STATES),
            "--out", str(out)]
    before = _calibration()
    with tempfile.TemporaryFile() as err:
        t0 = time.monotonic()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                 stderr=err, env=env, preexec_fn=cap)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t0 > TIMEOUT_S:
                timed_out = True
                child.kill()
                pid, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.02)
        wall = time.monotonic() - t0
        # reaped by wait4 above, for its rusage: tell Popen the result
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().decode("utf-8", "replace").strip().splitlines()
    after = _calibration()
    run = {"wallSeconds": round(wall, 3),
           "refSeconds": round(wall * reference / ((before + after) / 2), 3),
           "calibrationSeconds": [round(before, 5), round(after, 5)],
           "maxRssMiB": round(usage.ru_maxrss / 1024, 1),
           "exitCode": child.returncode if child.returncode >= 0 else None,
           "signal": (signal.Signals(-child.returncode).name
                      if child.returncode < 0 else None),
           "timedOut": timed_out,
           "stderrTail": lines[-1] if lines else None,
           "findingCount": None,
           "reportBytes": {name: (out / name).stat().st_size
                           for name in REPORTS if (out / name).exists()}}
    if (out / "run_meta.json").exists():
        run["findingCount"] = json.loads((out / "run_meta.json").read_text(
            encoding="utf-8"))["findingCount"]
    return run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--shapes", nargs="+", metavar="SHAPE",
                   help="shapes to run under each engine (default: the "
                        "State table's shapes of that engine)")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    args = p.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    reference = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))["calibration_s"]
    doc = {"schema": "bench_scaling",
           "host": _host(), "python": platform.python_version(),
           "settings": {"k": K, "seed": SEED, "maxStates": MAX_STATES,
                        "referenceCalibrationSeconds": reference,
                        "capGiB": CAP_BYTES / 2**30,
                        "timeoutSeconds": TIMEOUT_S},
           "runs": []}
    bundles: dict = {}
    with tempfile.TemporaryDirectory(prefix="pdcfa-scaling-") as tmp:
        work = Path(tmp)
        for mode in SHAPES:
            for shape in args.shapes or SHAPES[mode]:
                if shape not in bundles:
                    bundles[shape] = _bundle(shape, work)
                run = _run(bundles[shape], mode, work / f"out-{shape}-{mode}",
                           reference)
                doc["runs"].append({"shape": shape, "mode": mode, **run})
                print(f"{shape} {mode}: exit {run['exitCode']}"
                      f"{' ' + run['signal'] if run['signal'] else ''}"
                      f"{' (timeout)' if run['timedOut'] else ''}, "
                      f"{run['wallSeconds']} s ({run['refSeconds']} s at "
                      f"reference speed), {run['maxRssMiB']} MiB, "
                      f"{run['findingCount']} findings", flush=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
