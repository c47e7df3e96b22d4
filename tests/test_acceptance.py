"""Acceptance suite: one test per criterion, printing a verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import itertools
import json
import re
import subprocess
import sys
import time
from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, RUN, STRICT_PROGRAMS
from pdcfa.cli import load_bundle, main
from pdcfa.concrete import run_concrete
from pdcfa.eps import discover_entry_points, saturate_app, Unit
from pdcfa.ir import parse_program
from pdcfa.machine import Store, seed_entry_bindings
from pdcfa.reach import AnalysisConfig, analyze
from pdcfa.taint import TaintStore, TaintVal, extract_findings, parse_summaries
from soundness import analyze_seeded, check_containment
from stores import all_categories, canonical_text
from views import replay_stack_actions, witness_steps

TABLE = parse_summaries(MICRO_SUMMARIES)


def _verdict(label: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {label}: {status}")
    assert not failures, f"{label}: " + "; ".join(str(f) for f in failures[:8])


def _saturate_bundle(bundles_dir, name, mode, k):
    bundle = load_bundle(bundles_dir / name)
    units = discover_entry_points(bundle, bundle.program)
    cfg = AnalysisConfig(mode=mode, k=k)
    store, taint, trace = saturate_app(bundle.program, units, cfg,
                                       bundle.summaries)
    return bundle, trace, extract_findings(trace)


def test_criterion_1_exception_precision(bundles_dir):
    """Two try/handler regions: pushdown k=1 finds exactly the malicious
    handler flow; finite k=0 adds the spurious cross-handler finding."""
    failures = []
    program_lines = (bundles_dir / "photoquote_exception" /
                     "app.sdex").read_text().count("\n")
    if not 60 <= program_lines <= 120:
        failures.append(f"program is {program_lines} lines")

    t0 = time.monotonic()
    _b, _trace, push_findings = _saturate_bundle(
        bundles_dir, "photoquote_exception", "pushdown", 1)
    push_secs = time.monotonic() - t0
    t0 = time.monotonic()
    _b2, _trace2, fin_findings = _saturate_bundle(
        bundles_dir, "photoquote_exception", "finite", 0)
    fin_secs = time.monotonic() - t0

    if len(push_findings) != 1:
        failures.append(f"pushdown findings = {len(push_findings)}, want 1")
    else:
        f = push_findings[0]
        if f.category is not TaintVal.LOCATION or f.sink_kind != "intent":
            failures.append("pushdown finding is not Location->intent")
        if f.trigger.entry_point != "quoteButton":
            failures.append(f"pushdown trigger = {f.trigger.entry_point}")
        if f.source_state.pos.method.method_name != "nextButton":
            failures.append("source not in the button-handler path")

    def crosses_benign_to_malicious(finding):
        # a witness transition from the upload task's throw into the
        # malicious handler while triggered from the benign button
        if finding.trigger.entry_point != "aboutButton":
            return False
        methods = [s.pos.method.method_name for s in finding.witness]
        for a, b in zip(methods, methods[1:]):
            if a == "doInBackground" and b == "quoteButton":
                return True
        return False

    if any(crosses_benign_to_malicious(f) for f in push_findings):
        failures.append("pushdown witness crosses into the malicious handler")
    if len(fin_findings) != 2:
        failures.append(f"finite findings = {len(fin_findings)}, want 2")
    spurious = [f for f in fin_findings
                if f.trigger.entry_point == "aboutButton"]
    if len(spurious) != 1 or not crosses_benign_to_malicious(spurious[0]):
        failures.append("finite mode lacks the spurious cross-handler finding")
    if push_secs >= 10 or fin_secs >= 10:
        failures.append(f"runtimes {push_secs:.1f}s/{fin_secs:.1f}s exceed 10s")
    _verdict("1 exception-precision", failures)


def test_criterion_2_soundness_vs_oracle():
    """Every concrete-trace state and binding is covered by the pushdown
    result, over the whole micro corpus, within 60 seconds."""
    failures = []
    if len(MICRO_PROGRAMS) < 20:
        failures.append("corpus smaller than 20 programs")
    t0 = time.monotonic()
    for name, (src, outcome, _ret) in sorted(MICRO_PROGRAMS.items()):
        program = parse_program(src)
        crun = run_concrete(program, RUN, fuel=10_000, summaries=TABLE)
        if crun.outcome != outcome:
            failures.append(f"{name}: unexpected outcome {crun.outcome}")
            continue
        cfg = AnalysisConfig(k=1)
        result = analyze_seeded(program, RUN, cfg, TABLE)
        problems = check_containment(program, crun, result, cfg.policy())
        if problems:
            failures.append(f"{name}: {problems[0]}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f}s")
    _verdict("2 soundness-vs-oracle", failures)


def test_criterion_3_pushdown_subset_of_finite():
    """Node sets: pushdown <= finite everywhere at equal k, and strictly
    smaller on the merged-return-context suite."""
    failures = []

    def node_sets(src, k):
        program = parse_program(src)
        cfg_p = AnalysisConfig(k=k)
        store, taint = Store(), TaintStore()
        seed_entry_bindings(program, RUN, store, taint)
        push = analyze(program, (RUN,), store, taint, cfg_p, TABLE)
        store2, taint2 = Store(), TaintStore()
        seed_entry_bindings(program, RUN, store2, taint2)
        fin = analyze(program, (RUN,), store2, taint2,
                      AnalysisConfig(mode="finite", k=k), TABLE)
        return frozenset(push.dsg.nodes), frozenset(fin.dsg.nodes)

    for name, (src, _o, _r) in sorted(MICRO_PROGRAMS.items()):
        for k in (0, 1):
            p, f = node_sets(src, k)
            if not p <= f:
                failures.append(f"{name} k={k}: pushdown not a subset")
    if len(STRICT_PROGRAMS) < 3:
        failures.append("return-flow suite smaller than 3 programs")
    for name, src in sorted(STRICT_PROGRAMS.items()):
        p, f = node_sets(src, 1)
        if not p <= f:
            failures.append(f"{name}: pushdown not a subset")
        if not p < f:
            failures.append(f"{name}: finite not strictly larger")
    _verdict("3 pushdown-subset-of-finite", failures)


def test_criterion_4_eps_order_insensitivity(bundles_dir):
    """Cross-unit tainted field flow is found under every unit ordering and
    both intra-unit entry orderings; saturated stores are byte-equal; a
    reseeded saturation adds nothing."""
    failures = []
    bundle = load_bundle(bundles_dir / "three_unit_relay")
    units = discover_entry_points(bundle, bundle.program)
    cfg = AnalysisConfig(k=1)
    collector = next(u for u in units if u.name == "CollectorUnit")
    others = [u for u in units if u.name != "CollectorUnit"]
    fingerprints = set()
    runs = 0
    for eps_order in (collector.entry_points,
                      tuple(reversed(collector.entry_points))):
        variant = Unit(collector.name, collector.kind, eps_order)
        for perm in itertools.permutations([variant] + others):
            store, taint, trace = saturate_app(
                bundle.program, list(perm), cfg, bundle.summaries)
            runs += 1
            findings = extract_findings(trace)
            hit = any(f.category is TaintVal.LOCATION
                      and f.sink_kind == "network"
                      and f.sink_state.pos.method.method_name == "onMessage"
                      for f in findings)
            if not hit:
                failures.append(
                    f"ordering {[u.name for u in perm]} lost the finding")
            fingerprints.add(canonical_text(store) + "\x00"
                             + canonical_text(taint))
    if runs != 12:
        failures.append(f"expected 12 orderings, ran {runs}")
    if len(fingerprints) != 1:
        failures.append(f"{len(fingerprints)} distinct saturated stores")

    # a run of every entry point from the saturated pair grows nothing
    store, taint, _trace = saturate_app(bundle.program, units, cfg,
                                        bundle.summaries)
    rerun = analyze(bundle.program,
                    tuple(ep.method_ref for u in units
                          for ep in u.entry_points),
                    store, taint, cfg, bundle.summaries)
    re_store, re_taint = rerun.final_store, rerun.final_taint
    if canonical_text(re_store) != canonical_text(store) \
            or canonical_text(re_taint) != canonical_text(taint):
        failures.append("a rerun from the saturated pair grew the store")
    if (re_store.fingerprint(), re_taint.fingerprint()) \
            != (store.fingerprint(), taint.fingerprint()):
        failures.append("a rerun from the saturated pair moved its "
                        "fingerprints")
    _verdict("4 eps-order-insensitivity", failures)


def test_criterion_5_least_permissions(bundles_dir, tmp_path):
    failures = []
    for name, over, missing in (("perm_over", ["SEND_SMS"], []),
                                ("perm_zero", [], ["INTERNET"])):
        out = tmp_path / name
        code = main(["--bundle", str(bundles_dir / name), "--out", str(out)])
        if code != 0:
            failures.append(f"{name}: exit {code}")
        doc = json.loads((out / "permissions_report.json").read_text())
        if doc["overPrivileged"] != over:
            failures.append(f"{name}: overPrivileged = {doc['overPrivileged']}")
        if doc["missing"] != missing:
            failures.append(f"{name}: missing = {doc['missing']}")
    _verdict("5 least-permissions", failures)


def test_criterion_6_lattice_and_instrumentation():
    """Join laws on generated stores; corpus runs terminate inside default
    budgets with monotone taint and no spontaneous categories."""
    failures = []

    # property tests over generated stores (hypothesis-driven)
    from test_machine import (
        test_store_join_associative,
        test_store_join_commutative,
        test_store_join_idempotent,
        test_taint_join_laws,
    )
    for prop in (test_store_join_commutative, test_store_join_associative,
                 test_store_join_idempotent, test_taint_join_laws):
        try:
            prop()
        except Exception as exc:  # property violation
            failures.append(f"{prop.__name__}: {exc}")

    # instrument taint joins: per-address sets may only grow
    orig_join = TaintStore.join
    violations = []

    def audited_join(self, addr, taints):
        before = self._data.get(addr, frozenset())
        grew = orig_join(self, addr, taints)
        if not before <= self._data.get(addr, frozenset()):
            violations.append(addr)
        return grew

    TaintStore.join = audited_join
    try:
        for name, (src, _o, _r) in sorted(MICRO_PROGRAMS.items()):
            program = parse_program(src)
            for mode in ("pushdown", "finite"):
                cfg = AnalysisConfig(mode=mode, k=1)
                store, taint = Store(), TaintStore()
                seed_entry_bindings(program, RUN, store, taint)
                res = analyze(program, (RUN,), store, taint, cfg, TABLE)
                if not res.complete:
                    failures.append(f"{name} ({mode}): hit budget")
                applied = set()
                for app in res.applications:
                    applied.update(app.source_categories)
                if not all_categories(res.final_taint) <= applied:
                    failures.append(f"{name} ({mode}): spontaneous taint")
    finally:
        TaintStore.join = orig_join
    if violations:
        failures.append(f"taint shrank at {violations[0]}")
    _verdict("6 lattice-and-instrumentation", failures)


_BUNDLE_CONFIGS = [
    ("photoquote_exception", ["--mode", "pushdown", "--k", "1"]),
    ("photoquote_exception", ["--mode", "finite", "--k", "0"]),
    ("photoquote_full", ["--mode", "pushdown", "--k", "1"]),
    ("three_unit_relay", ["--mode", "pushdown", "--k", "1"]),
    ("perm_over", ["--mode", "pushdown", "--k", "1"]),
    ("perm_zero", ["--mode", "pushdown", "--k", "1"]),
]

_REPORTS = ("flow_report.json", "permissions_report.json", "heatmap.json",
            "state_graph.dot")


def test_criterion_7_determinism_and_goldens(bundles_dir, tmp_path):
    """Byte-identical reports across separate processes (hash randomization
    included); DOT validates; highlighted witness edges replay as legal
    stack action sequences."""
    failures = []
    for i, (bundle, flags) in enumerate(_BUNDLE_CONFIGS):
        outputs = []
        for attempt in (0, 1):
            out = tmp_path / f"{i}_{attempt}"
            proc = subprocess.run(
                [sys.executable, "-m", "pdcfa.cli",
                 "--bundle", str(bundles_dir / bundle),
                 "--out", str(out), *flags],
                capture_output=True, text=True)
            if proc.returncode not in (0, 1):
                failures.append(f"{bundle}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[:200]}")
                break
            outputs.append({name: (out / name).read_bytes()
                            for name in _REPORTS})
        if len(outputs) == 2:
            for name in _REPORTS:
                if outputs[0][name] != outputs[1][name]:
                    failures.append(f"{bundle} {' '.join(flags)}: "
                                    f"{name} differs between runs")

    # structural DOT validation on a pushdown run
    for bundle in ("photoquote_exception", "three_unit_relay"):
        out = tmp_path / f"dot_{bundle}"
        main(["--bundle", str(bundles_dir / bundle), "--out", str(out),
              "--mode", "pushdown", "--k", "1"])
        dot = (out / "state_graph.dot").read_text()
        if not dot.startswith("digraph reachable_states {") \
                or not dot.rstrip().endswith("}"):
            failures.append(f"{bundle}: malformed DOT frame")
        body = dot[dot.index("{") + 1:dot.rindex("}")]
        ok_line = re.compile(
            r'^\s*(rankdir=LR;|node \[[^\]]*\];|n\d+ \[.*\];|'
            r'n\d+ -> n\d+ \[.*\];)\s*$')
        for line in filter(str.strip, body.splitlines()):
            if not ok_line.match(line):
                failures.append(f"{bundle}: bad DOT line {line!r}")
                break
        declared = set(re.findall(r"^\s*(n\d+) \[", dot, re.M))
        used = set(re.findall(r"(n\d+) -> (n\d+)", dot))
        for a, b in used:
            if a not in declared or b not in declared:
                failures.append(f"{bundle}: edge uses undeclared node")
                break

        # highlighted witness edges replay as balanced stack actions
        _b, _trace, findings = _saturate_bundle(bundles_dir, bundle,
                                                "pushdown", 1)
        for f in findings:
            if not replay_stack_actions(witness_steps(f)):
                failures.append(f"{bundle}: witness replay failed")
        highlighted = dot.count('witness="1"')
        if findings and highlighted == 0:
            failures.append(f"{bundle}: no highlighted witness edges")
    _verdict("7 determinism-and-goldens", failures)
