"""The benchmark's workloads and the checks every analysis's outputs pass.

A workload is a list of jobs, one ``pdcfa`` invocation each; one sample is
one pass over the list. ``wide-pushdown`` and ``finite-witness`` are one
generated bundle each; ``corpus`` is every shipped bundle under both engines
at k = 0, 1 and 2, in an order the seed shuffles.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import synth

ROOT = Path(__file__).resolve().parent.parent
BUNDLES = ROOT / "tests" / "corpus" / "bundles"
SCHEMAS = ROOT / "src" / "pdcfa" / "schemas"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

REPORTS = ("flow_report.json", "permissions_report.json", "heatmap.json",
           "state_graph.dot")
SCHEMA_OF = {"flow_report.json": "flow_report",
             "permissions_report.json": "permissions_report",
             "heatmap.json": "heatmap",
             "run_meta.json": "run_meta"}

# name -> (shape, engine); both run at k = 1
SYNTH = {"wide-pushdown": ("6x8x3x2", "pushdown"),
         "finite-witness": ("2x4x3x2", "finite")}
CORPUS_BUNDLES = ("perm_over", "perm_zero", "photoquote_exception",
                  "photoquote_full", "three_unit_relay")
WORKLOADS = (*SYNTH, "corpus")
DEFAULT_SEED = 1


@dataclass
class Job:
    name: str
    bundle: Path
    flags: list
    exit_code: int
    digests: dict | None = None  # report file -> SHA-256, when pinned
    must_flow: set = field(default_factory=set)  # flow keys that must appear
    seen: dict = field(default_factory=dict)  # digest tuple -> problems

    def argv(self, out: Path) -> list:
        return ["--bundle", str(self.bundle), *self.flags, "--out", str(out)]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def flow_key(f: dict) -> tuple:
    """A finding as (trigger unit, entry, category, source line, sink line,
    sink kind)."""
    return (f["trigger"]["unit"], f["trigger"]["entryPoint"], f["category"],
            f["source"]["line"], f["sink"]["line"], f["sink"]["kind"])


def flows_of(outdir: Path) -> set:
    doc = json.loads((outdir / "flow_report.json").read_text(encoding="utf-8"))
    return {flow_key(f) for f in doc["findings"]}


def prepare(workload: str, seed: int, workdir: Path, run_cli) -> list:
    """The jobs of one sample. ``run_cli(argv)`` runs the CLI untimed; the
    finite-witness workload uses it once to get the pushdown flows that the
    finite flows must contain."""
    ref = load_reference()
    if workload == "corpus":
        jobs = []
        for bundle in CORPUS_BUNDLES:
            for mode in ("pushdown", "finite"):
                for k in (0, 1, 2):
                    name = f"{bundle} {mode} k={k}"
                    pinned = ref["corpus"][name]
                    jobs.append(Job(name, BUNDLES / bundle,
                                    ["--mode", mode, "--k", str(k)],
                                    pinned["exit_code"], pinned["digests"]))
        random.Random(seed).shuffle(jobs)
        return jobs
    shape, mode = SYNTH[workload]
    generated = synth.generate(synth.Shape.parse(shape), seed)
    bundle = generated.write(workdir / "bundle")
    job = Job(workload, bundle, ["--mode", mode, "--k", "1"], 1)
    if seed == DEFAULT_SEED:
        job.digests = ref[workload]["digests"]
    job.must_flow = {(f["unit"], f["entryPoint"], f["category"],
                      f["sourceLine"], f["sinkLine"], f["sinkKind"])
                     for f in generated.flows}
    if mode == "finite":
        out = workdir / "pushdown"
        rc = run_cli(["--bundle", str(bundle), "--mode", "pushdown",
                      "--k", "1", "--out", str(out)])
        if rc != 1:
            raise RuntimeError(f"pushdown reference run exited {rc}")
        job.must_flow |= flows_of(out)
    return [job]


def digests(outdir: Path) -> dict:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in REPORTS}


class Checker:
    """Checks one analysis's exit code and outputs; returns its problems."""

    def __init__(self):
        import jsonschema

        self._jsonschema = jsonschema
        self._schemas = {
            name: json.loads((SCHEMAS / f"{name}.schema.json")
                             .read_text(encoding="utf-8"))
            for name in set(SCHEMA_OF.values())}

    def _valid(self, outdir: Path, name: str) -> str | None:
        doc = json.loads((outdir / name).read_text(encoding="utf-8"))
        try:
            self._jsonschema.validate(doc, self._schemas[SCHEMA_OF[name]])
        except self._jsonschema.ValidationError as exc:
            return f"{name} fails its schema: {exc.message}"
        return None

    def check(self, job: Job, rc, outdir: Path) -> list:
        if rc != job.exit_code:
            return [f"{job.name}: exit code {rc}, expected {job.exit_code}"]
        got = digests(outdir)
        key = tuple(got[n] for n in REPORTS)
        problems = [p for p in [self._valid(outdir, "run_meta.json")] if p]
        if job.seen and key not in job.seen:
            problems.append(f"{job.name}: reports differ between samples")
        if key not in job.seen:
            # the same bytes pass or fail the same way; check them once
            found = [self._valid(outdir, n) for n in SCHEMA_OF
                     if n != "run_meta.json"]
            missing = job.must_flow - flows_of(outdir)
            if missing:
                found.append(f"{len(missing)} expected flow(s) missing, "
                             f"e.g. {sorted(missing)[0]}")
            if job.digests is not None:
                found += [f"{n} digest {got[n][:12]} differs from the "
                          f"reference {job.digests[n][:12]}"
                          for n in REPORTS if got[n] != job.digests[n]]
            job.seen[key] = [f"{job.name}: {p}" for p in found if p]
        return problems + job.seen[key]
