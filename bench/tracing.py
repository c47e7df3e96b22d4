"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install()`` replaces the public functions of each ``pdcfa`` layer
at the attribute where its caller looks them up (``pdcfa.cli.load_bundle``,
``pdcfa.eps.saturate_app``, ``pdcfa.reach.analyze`` and so on) with wrappers
that time the call and count its work; ``uninstall()`` puts the originals
back. Nothing under ``src/`` knows about it.

Every span belongs to one bucket. A bucket's self time is the time its
spans ran minus the time their child spans ran, so the self times of all
buckets add up to the root span, one ``pdcfa.cli.main`` call. Spans are
kept in memory, one list per sample, each with the span that caused it,
and written out once at the end of a run. ``machine.step`` spans are the hot
path (one per worklist pop), so they are timed and counted in aggregate but
not listed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import pdcfa.cli as cli
import pdcfa.eps as eps
import pdcfa.machine as machine
import pdcfa.permissions as permissions
import pdcfa.reach as reach
import pdcfa.report as report
import pdcfa.taint as taint

# Buckets whose self times partition a traced analysis, in report order.
SELF_BUCKETS = ("cli.self_s", "ir.parse_s", "eps.self_s", "eps.fingerprint_s",
                "reach.self_s", "reach.witness_s", "machine.step_s",
                "taint.self_s", "permissions.s", "report.flow_s",
                "report.perm_s", "report.heatmap_s", "report.dot_s",
                "report.json_s")

# Deterministic work counters, per analysis (summed over a corpus pass).
COUNTERS = ("ir.statements", "eps.engine_runs", "eps.entry_points",
            "eps.global_rounds", "eps.fingerprint_calls",
            "reach.states_summed",
            "reach.states_unique", "reach.edges_summed",
            "reach.summaries_summed", "reach.worklist_pops",
            "reach.witness_calls", "machine.step_calls", "machine.store_joins",
            "machine.store_grows", "taint.findings", "report.dot_bytes")


class Tracer:
    def __init__(self):
        self._stack: list = []  # [bucket, start, child seconds, span index]
        self._patched: list = []  # (owner, attribute, original)
        self._unique_states: set = set()
        self.samples: list = []  # one dict of figures per finished sample
        self.spans: list = []  # one list of spans per finished sample
        self._begin_sample()

    # -- spans --------------------------------------------------------------

    def _begin_sample(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._unique_states.clear()
        self._sample_spans: list = []

    def _enter(self, bucket: str, name: str | None):
        span = None
        if name is not None:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            span = len(self._sample_spans)
            self._sample_spans.append([name, parent, 0.0, 0.0])
        self._stack.append([bucket, time.perf_counter(), 0.0, span])

    def _exit(self) -> float:
        t1 = time.perf_counter()
        bucket, t0, child, span = self._stack.pop()
        dur = t1 - t0
        self.self_s[bucket] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if span is not None:
            self._sample_spans[span][2:] = [t0, t1]
        return dur

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one analysis."""
        self._enter("cli.self_s", "cli.main")
        try:
            return fn(*args)
        finally:
            self.incl_s["analysis_s"] += self._exit()

    def end_sample(self) -> dict:
        """Close the current sample and return its figures."""
        c = self.counts
        fig = {k: self.self_s.get(k, 0.0) for k in SELF_BUCKETS}
        fig.update({k: c.get(k, 0) for k in COUNTERS})
        fig.update({
            "analysis_s": self.incl_s["analysis_s"],
            "cli.load_s": self.incl_s["cli.load_s"],
            "eps.saturate_s": self.incl_s["eps.saturate_s"],
            "reach.analyze_s": self.incl_s["reach.analyze_s"],
            "taint.findings_s": self.incl_s["taint.findings_s"],
        })
        self.samples.append(fig)
        self.spans.append(self._sample_spans)
        self._begin_sample()
        return fig

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, bucket: str, name: str | None,
               inclusive: str | None = None, count: str | None = None,
               after=None):
        def make(fn):
            def wrapped(*args, **kwargs):
                self._enter(bucket, name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dur = self._exit()
                    if inclusive is not None:
                        self.incl_s[inclusive] += dur
                    if count is not None:
                        self.counts[count] += 1
                if after is not None:
                    after(out, *args)
                return out
            wrapped.__wrapped__ = fn
            return wrapped
        return make

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        t = self._timed
        self._patch(cli, "load_bundle",
                    t("cli.self_s", "cli.load_bundle", "cli.load_s"))
        self._patch(cli, "parse_program",
                    t("ir.parse_s", "ir.parse_program", after=self._parsed))
        self._patch(eps, "saturate_app",
                    t("eps.self_s", "eps.saturate_app", "eps.saturate_s",
                      after=self._saturated))
        for store in (machine.Store, taint.TaintStore):
            self._patch(store, "fingerprint",
                        t("eps.fingerprint_s", "eps.fingerprint",
                          count="eps.fingerprint_calls"))
        self._patch(reach, "analyze",
                    t("reach.self_s", "reach.analyze", "reach.analyze_s",
                      count="eps.engine_runs", after=self._analyzed))
        self._patch(reach, "reconstruct_path_steps",
                    t("reach.witness_s", "reach.reconstruct_path_steps",
                      count="reach.witness_calls"))
        for step in ("step_independent", "step_dependent"):
            self._patch(machine, step,
                        t("machine.step_s", None, count="machine.step_calls"))
        self._patch(machine.Store, "join", self._counted_join)
        self._patch(cli, "extract_findings",
                    t("taint.self_s", "taint.extract_findings",
                      "taint.findings_s", after=self._found))
        for fn in ("collect_permissions", "build_permission_report"):
            self._patch(permissions, fn,
                        t("permissions.s", f"permissions.{fn}"))
        for fn, bucket in (("emit_flow_report", "report.flow_s"),
                           ("emit_permission_report", "report.perm_s"),
                           ("emit_heat_map", "report.heatmap_s"),
                           ("to_json_bytes", "report.json_s")):
            self._patch(report, fn, t(bucket, f"report.{fn}"))
        self._patch(report, "export_graph",
                    t("report.dot_s", "report.export_graph",
                      after=self._dot))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _counted_join(self, fn):
        counts = self.counts

        def join(store, addr, values):
            grew = fn(store, addr, values)
            counts["machine.store_joins"] += 1
            if grew:
                counts["machine.store_grows"] += 1
            return grew
        join.__wrapped__ = fn
        return join

    # -- counters read from return values -----------------------------------

    def _parsed(self, program, *args):
        self.counts["ir.statements"] += sum(
            len(m.body) for m in program.methods.values())

    def _saturated(self, out, program, units, *args):
        self.counts["eps.entry_points"] += sum(len(u.entry_points)
                                               for u in units)
        self.counts["eps.global_rounds"] += out[2].global_rounds
        # states are unique per analysis; a corpus pass sums its analyses
        self.counts["reach.states_unique"] += len(self._unique_states)
        self._unique_states.clear()

    def _analyzed(self, result, *args):
        dsg = result.dsg
        c = self.counts
        c["reach.states_summed"] += len(dsg.nodes)
        c["reach.edges_summed"] += len(dsg.edges)
        c["reach.summaries_summed"] += len(dsg.epsilon_summaries)
        c["reach.worklist_pops"] += sum(result.visit_counts.values())
        self._unique_states.update(dsg.nodes)

    def _found(self, findings, *args):
        self.counts["taint.findings"] += len(findings)

    def _dot(self, text, *args):
        self.counts["report.dot_bytes"] += len(text.encode("utf-8"))

    def write_spans(self, path, run: dict):
        """Write every sample's spans as JSON lists of ``[name, parent
        index or null, start, end]``, times in seconds from the sample's
        root span."""
        out = []
        for spans in self.spans:
            base = spans[0][2] if spans else 0.0
            out.append([[n, p, round(t0 - base, 9), round(t1 - base, 9)]
                        for n, p, t0, t1 in spans])
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**run, "samples": out}, f)
