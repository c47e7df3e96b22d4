"""Command-line front-end: load a bundle, saturate, analyze, write reports.

Exit codes: 0 completed with no findings, 1 completed with findings,
2 usage or input error, 3 resource limit hit, 4 internal error (no reports
written); a stdout closed by its reader does not change them. ``PDCFA_LOG``
selects the log level. ``--mode`` is the only difference between the two
engines' invocations; every other knob is shared.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__, eps, permissions as perms_mod, report as report_mod
from .ir import ParseError, Program, parse_program, record
from .machine import INT_CONSTANT_BUDGET
from .reach import AnalysisConfig, FINITE, PUSHDOWN
from .taint import (SummaryFormatError, SummaryTable, extract_findings,
                    parse_summaries)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL = 4


class BundleError(Exception):
    pass


@record(mutable=True)
class AppBundle:
    manifest: dict
    program: Program
    summaries: SummaryTable
    predicates: list
    input_digests: dict  # report key -> SHA-256 of the bytes analysed

    @property
    def app_name(self) -> str:
        return self.manifest["appName"]

    @property
    def requested_permissions(self) -> frozenset:
        return frozenset(self.manifest.get("requestedPermissions", []))


def _read_text(path: Path) -> tuple:
    """The text of ``path`` as ``Path.read_text`` decodes it and the SHA-256
    of the bytes it came from, from one read: the digest describes the
    bytes that are analysed, even if the file changes later."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path} is not UTF-8: {exc.reason} at byte "
                          f"{exc.start}") from None
    return text, hashlib.sha256(data).hexdigest()


def check_manifest(manifest) -> None:
    """Accept exactly what ``schemas/manifest.schema.json`` accepts, by one
    walk over that schema (``_violations``). The first violation, in the
    schema's order, raises ``BundleError`` naming its key path, e.g.
    ``units[0].entryPoints[1].category``."""
    for path, problem in _violations(manifest, _manifest_schema(), ""):
        raise BundleError(f"manifest does not validate: "
                          f"{path or 'top level'}: {problem}")


@functools.cache
def _manifest_schema() -> dict:
    path = Path(__file__).parent / "schemas" / "manifest.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


# JSON's names for the types json.loads makes, bool before int: True is an
# int to isinstance, a boolean to JSON
_JSON_NAMES = {bool: "a boolean", str: "a string", int: "an integer",
               float: "a number", list: "an array", dict: "an object"}
# the schema ``type``s the walk reads
_TYPES = {"string": str, "array": list, "object": dict}


def _violations(value, schema: dict, path: str):
    """(key path, problem) for each way ``value`` breaks ``schema``, which
    may use ``type``, ``enum``, ``required``, ``properties``, ``minItems``
    and ``items``; a value of the wrong type is not looked into."""
    kind = _TYPES[schema["type"]] if "type" in schema else object
    if not isinstance(value, kind):
        got = next((name for t, name in _JSON_NAMES.items()
                    if isinstance(value, t)), "null")
        yield path, f"expected {_JSON_NAMES[kind]}, got {got}"
        return
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {', '.join(schema['enum'])}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield (f"{path}.{key}" if path else key,
                       "required key is missing")
        for key, subschema in schema.get("properties", {}).items():
            if key in value:
                yield from _violations(value[key], subschema,
                                       f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, "must not be empty" if not value else \
                f"must hold at least {schema['minItems']} items"
        for i, item in enumerate(value if "items" in schema else ()):
            yield from _violations(item, schema["items"], f"{path}[{i}]")


def load_bundle(root) -> AppBundle:
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise BundleError(f"no manifest.json in {root}")
    manifest_text, manifest_sha = _read_text(manifest_path)
    try:
        manifest = json.loads(manifest_text)
    except json.JSONDecodeError as exc:
        raise BundleError(f"malformed manifest: {exc}") from exc
    check_manifest(manifest)
    program_path = root / manifest["program"]
    summaries_path = root / manifest["summaries"]
    for p in (program_path, summaries_path):
        if not p.is_file():
            raise BundleError(f"missing bundle file {p}")
    program_text, program_sha = _read_text(program_path)
    program = parse_program(program_text)
    summaries_text, summaries_sha = _read_text(summaries_path)
    summaries = parse_summaries(summaries_text)
    predicates = [report_mod.parse_predicate(p)
                  for p in manifest.get("predicates", [])]
    digests = {"programSha256": program_sha,
               "manifestSha256": manifest_sha,
               "summariesSha256": summaries_sha}
    return AppBundle(manifest, program, summaries, predicates, digests)


def _meta(bundle: AppBundle, cfg: AnalysisConfig, predicate) -> dict:
    return {
        "toolVersion": __version__,
        "app": bundle.app_name,
        "config": {
            "mode": cfg.mode,
            "k": cfg.k,
            "heapContext": cfg.heap_context,
            # fixed values, echoed so that report bytes stay unchanged
            "intConstantBudget": INT_CONSTANT_BUDGET,
            "maxStates": cfg.max_states,
            "maxSeconds": cfg.max_seconds,
            "jobs": 1,
            "predicate": predicate.text() if predicate is not None else None,
        },
        "inputs": bundle.input_digests,
    }


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pdcfa",
        description="Pushdown control-flow, taint, and least-permissions "
                    "analysis for .sdex bundles.")
    p.add_argument("--bundle", required=True, metavar="DIR",
                   help="bundle directory (manifest.json, program, summaries)")
    d = AnalysisConfig()
    p.add_argument("--mode", choices=[PUSHDOWN, FINITE], default=d.mode,
                   help="reachability engine (default: %(default)s)")
    p.add_argument("--k", type=int, default=d.k, metavar="N",
                   help="call-site context depth, 0..4 (default: %(default)s)")
    p.add_argument("--heap-context", action="store_true",
                   help="pair allocation sites with the allocating context")
    p.add_argument("--max-states", type=int, default=d.max_states, metavar="N",
                   help="fixpoint run's state limit (default: %(default)s)")
    p.add_argument("--max-seconds", type=float, default=d.max_seconds,
                   metavar="N", help="time limit (default: %(default)s)")
    p.add_argument("--where", metavar="PRED", default=None,
                   help='finding filter, e.g. "taintHas(Location) and '
                        'classIs(Photo*)"')
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory for report files")
    return p


def _configure_logging() -> None:
    """The level ``PDCFA_LOG`` names; WARNING for any other value."""
    name = os.environ.get("PDCFA_LOG", "WARNING").upper()
    level = logging.getLevelName(name)  # a str for a name of no level
    logging.basicConfig(level=level if type(level) is int else logging.WARNING,
                        format="%(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    """Run ``pdcfa`` on ``argv`` and return its exit code. Automatic
    garbage collection pauses for the run, and is left on or off as it was
    found. A run frees what it drops by reference counting: on the
    wide-pushdown bundle its 56 collector passes freed 27 objects. Its
    only cycles are its ``Program``'s linked statement records and the key
    tables and compiled evaluators they hold, which the caller's next
    collection frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    _configure_logging()
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_CLEAN
    t0 = time.monotonic()
    try:
        cfg = AnalysisConfig(
            mode=args.mode, k=args.k, heap_context=args.heap_context,
            max_states=args.max_states, max_seconds=args.max_seconds)
        deadline = cfg.deadline()  # it counts parsing too
        bundle = load_bundle(args.bundle)
        where = (None if args.where is None
                 else report_mod.parse_predicate(args.where))
        predicate = report_mod.conjoin(bundle.predicates + [where])
        units = eps.discover_entry_points(bundle, bundle.program)
    except (BundleError, ParseError, SummaryFormatError,
            report_mod.PredicateError, eps.UnknownMethod, ValueError) as exc:
        print(f"pdcfa: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _analyze(bundle, cfg, deadline, predicate, units,
                        Path(args.out), t0)
    except Exception as exc:
        # a defect, not a verdict: exit 1 would read as "findings"
        logging.getLogger(__name__).debug("internal error", exc_info=True)
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"pdcfa: internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def _analyze(bundle: AppBundle, cfg: AnalysisConfig, deadline: float,
             predicate, units, outdir: Path, t0: float) -> int:
    """Saturate, extract findings and write the reports, each read from
    the fixpoint run and its triggers. The output directory is made once
    the findings and the heat map are built. The DOT is made and written
    first; its text and the fixpoint graph are dropped before the flow and
    permission reports are built, and the findings once the flow report
    holds what is written and printed."""
    _store, _taint, trace = eps.saturate_app(
        bundle.program, units, cfg, bundle.summaries, deadline=deadline)
    findings = extract_findings(trace)
    collected = perms_mod.collect_permissions(trace)
    preport = perms_mod.build_permission_report(
        bundle.requested_permissions, collected,
        lower_bound=not trace.complete)
    meta = _meta(bundle, cfg, predicate)
    heat_doc = report_mod.emit_heat_map(trace, bundle.program, meta)
    written = []  # the files this run writes to: a failed write removes them

    def create(name: str):
        written.append(outdir / name)
        return open(written[-1], "wb")

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with create("state_graph.dot") as fh:  # a stopped run has no graph
            fh.write(report_mod.export_graph(
                trace.fixpoint if trace.complete else None, findings,
                bundle.program).encode("utf-8"))
        trace.fixpoint = None
        flow_doc = report_mod.emit_flow_report(findings, predicate,
                                               bundle.program, meta)
        findings = None
        perm_doc = report_mod.emit_permission_report(preport, bundle.program,
                                                     meta)
        for name, doc in (("flow_report.json", flow_doc),
                          ("permissions_report.json", perm_doc),
                          ("heatmap.json", heat_doc)):
            with create(name) as fh:
                report_mod.to_json_bytes(doc, fh)
        with create("run_meta.json") as fh:
            report_mod.to_json_bytes({
                **meta,
                "schema": "run_meta",
                "complete": trace.complete,
                "limitReason": trace.limit_reason,
                "globalRounds": trace.global_rounds,
                "findingCount": flow_doc["findingCount"],
                "elapsedSeconds": round(time.monotonic() - t0, 3),
            }, fh)
    except Exception as exc:  # the write's own error decides the exit code
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        if not isinstance(exc, OSError):
            raise
        print(f"pdcfa: error: cannot write reports to {outdir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE

    _print_summaries(report_mod.render_flow_report_text(flow_doc),
                     report_mod.render_permissions_text(perm_doc))
    if not trace.complete:
        print(f"pdcfa: resource limit hit ({trace.limit_reason}); "
              "results are partial", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    return EXIT_FINDINGS if flow_doc["findingCount"] else EXIT_CLEAN


def _print_summaries(*texts: str) -> None:
    """Print the text reports. A reader that closed stdout early (``pdcfa
    ... | head``) loses the rest of them, but the verdict stands: the report
    files are written. stdout is then pointed at devnull, so the flush at
    exit does not raise again."""
    try:
        for text in texts:
            sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
