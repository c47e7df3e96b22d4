"""Analyst-facing outputs: flow report, permissions report, heat map, graph.

Reports serialize as JSON against schemas shipped in ``pdcfa/schemas``; the
graph is emitted as DOT (SVG rendering is external tooling's job). All
documents are byte-deterministic for fixed inputs and embed the config echo
and input digests passed in ``meta``. Verdict hints only restate findings
and permission gaps; the tool never rules on maliciousness by itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from json.encoder import encode_basestring_ascii as _encode_str

from .ir import StmtPos
from .permissions import PermissionReport
from .reach import NOOP, POP, PUSH, ControlState, Edge
from .taint import TaintVal

_ATOM_RE = re.compile(r"\s*([A-Za-z]+)\s*\(\s*([^()]*)\s*\)\s*")

_ATOM_NAMES = ("classIs", "methodIs", "lineIn", "taintHas", "sinkKindIs",
               "permissionIs", "unitIs")


class PredicateError(Exception):
    pass


@dataclass(frozen=True)
class PredicateAtom:
    name: str
    args: tuple

    def text(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Predicate:
    """Conjunction of filter atoms over findings."""

    atoms: tuple

    def text(self) -> str:
        return " and ".join(a.text() for a in self.atoms)

    def matches(self, finding) -> bool:
        return all(_atom_matches(a, finding) for a in self.atoms)


def parse_predicate(text: str) -> Predicate:
    """Parse e.g. ``taintHas(Location) and classIs(Photo*)``."""
    atoms = []
    for part in re.split(r"\band\b", text):
        part = part.strip()
        if not part:
            continue
        m = _ATOM_RE.fullmatch(part)
        if m is None:
            raise PredicateError(f"malformed predicate atom {part!r}")
        name, rawargs = m.group(1), m.group(2)
        if name not in _ATOM_NAMES:
            raise PredicateError(f"unknown predicate atom {name!r}")
        args = tuple(a.strip() for a in rawargs.split(",") if a.strip())
        if name == "lineIn":
            if len(args) != 2:
                raise PredicateError("lineIn takes (lo, hi)")
            lo, hi = int(args[0]), int(args[1])
            if lo > hi:
                raise PredicateError("lineIn requires lo <= hi")
            args = (lo, hi)
        elif name == "taintHas":
            if len(args) != 1 or args[0] not in {t.value for t in TaintVal}:
                raise PredicateError(f"taintHas needs a taint category, got "
                                     f"{args!r}")
        elif len(args) != 1:
            raise PredicateError(f"{name} takes one argument")
        atoms.append(PredicateAtom(name, args))
    if not atoms:
        raise PredicateError("empty predicate")
    return Predicate(tuple(atoms))


def conjoin(predicates) -> Predicate | None:
    atoms = []
    for p in predicates:
        if p is not None:
            atoms.extend(p.atoms)
    return Predicate(tuple(atoms)) if atoms else None


def _atom_matches(atom: PredicateAtom, f) -> bool:
    src_cls = f.source_state.pos.method.class_name
    snk_cls = f.sink_state.pos.method.class_name
    if atom.name == "classIs":
        return fnmatchcase(src_cls, atom.args[0]) \
            or fnmatchcase(snk_cls, atom.args[0])
    if atom.name == "methodIs":
        return fnmatchcase(f.source_state.pos.method.method_name, atom.args[0]) \
            or fnmatchcase(f.sink_state.pos.method.method_name, atom.args[0])
    if atom.name == "lineIn":
        lo, hi = atom.args
        return lo <= f.source_line <= hi or lo <= f.sink_line <= hi
    if atom.name == "taintHas":
        return f.category.value == atom.args[0]
    if atom.name == "sinkKindIs":
        return f.sink_kind == atom.args[0]
    if atom.name == "permissionIs":
        return atom.args[0] in f.sink_permissions
    if atom.name == "unitIs":
        return fnmatchcase(f.trigger.unit, atom.args[0])
    raise AssertionError(atom.name)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _state_ref(program, state) -> dict:
    return {
        "class": state.pos.method.class_name,
        "method": state.pos.method.method_name,
        "line": program.line_of(state.pos),
    }


def emit_flow_report(findings, predicate, program, meta=None) -> dict:
    """Findings filtered by the predicate (all pass when absent)."""
    meta = meta or {}
    kept = [f for f in findings if predicate is None or predicate.matches(f)]
    refs: dict = {}  # state -> its _state_ref, shared by every mention

    def ref(state) -> dict:
        r = refs.get(state)
        if r is None:
            r = refs[state] = _state_ref(program, state)
        return r

    # one trigger dict per trigger and one sink dict per (state, kind,
    # permissions), shared like the state refs: the JSON writer encodes
    # each once
    triggers: dict = {}
    sinks: dict = {}
    entries = []
    for f in kept:
        trigger = triggers.get(f.trigger)
        if trigger is None:
            trigger = triggers[f.trigger] = {
                "unit": f.trigger.unit, "entryPoint": f.trigger.entry_point}
        sink_key = (f.sink_state, f.sink_kind, f.sink_permissions)
        sink = sinks.get(sink_key)
        if sink is None:
            sink = sinks[sink_key] = {**ref(f.sink_state),
                                      "kind": f.sink_kind,
                                      "permissions": sorted(f.sink_permissions)}
        entries.append({
            "unit": f.trigger.unit,
            "trigger": trigger,
            "category": f.category.value,
            "source": ref(f.source_state),
            "sink": sink,
            "witness": [ref(s) for s in f.witness],
        })
    hints = []
    if kept:
        cats = sorted({f.category.value for f in kept})
        hints.append(f"{len(kept)} tainted source-to-sink flow(s) detected "
                     f"across categories: {', '.join(cats)}")
        kinds = sorted({f.sink_kind for f in kept})
        hints.append(f"sink kinds reached by tainted data: {', '.join(kinds)}")
    doc = {
        "schema": "flow_report",
        "findingCount": len(entries),
        "predicate": predicate.text() if predicate is not None else None,
        "findings": entries,
        "verdictHints": hints,
    }
    doc.update(meta)
    return doc


def emit_permission_report(preport: PermissionReport, program,
                           meta=None) -> dict:
    meta = meta or {}
    evidence = {}
    for perm, sites in preport.evidence.items():
        evidence[perm] = [{"class": s.pos.method.class_name,
                           "method": s.pos.method.method_name,
                           "line": line} for s, line in sites]
    hints = []
    if preport.over_privileged:
        hints.append("requested permission(s) with no reachable use: "
                     + ", ".join(sorted(preport.over_privileged)))
    if preport.missing:
        hints.append("permission-gated API(s) reachable without a request: "
                     + ", ".join(sorted(preport.missing)))
    doc = {
        "schema": "permissions_report",
        "requested": sorted(preport.requested),
        "reached": sorted(preport.reached),
        "overPrivileged": sorted(preport.over_privileged),
        "missing": sorted(preport.missing),
        "evidence": evidence,
        "lowerBound": preport.lower_bound,
        "verdictHints": hints,
    }
    doc.update(meta)
    return doc


def emit_heat_map(results, program, meta=None, top_n: int = 50) -> dict:
    """Visit counts over a list of results, aggregated per method and per
    statement, descending."""
    meta = meta or {}
    per_stmt: dict = {}
    per_method: dict = {}
    for res in results:
        for state, count in res.visit_counts.items():
            if count == 0:  # discovered but unprocessed (stopped at a limit)
                continue
            key = (state.pos.method, state.pos.index)
            per_stmt[key] = per_stmt.get(key, 0) + count
            per_method[state.pos.method] = \
                per_method.get(state.pos.method, 0) + count
    methods = [{"class": m.class_name, "method": m.method_name,
                "visits": v}
               for m, v in sorted(per_method.items(),
                                  key=lambda kv: (-kv[1], kv[0].sort_key()))]
    statements = [{"class": m.class_name, "method": m.method_name,
                   "index": idx,
                   "line": program.line_of(StmtPos(m, idx)),
                   "visits": v}
                  for (m, idx), v in sorted(
                      per_stmt.items(),
                      key=lambda kv: (-kv[1], kv[0][0].sort_key(), kv[0][1]))]
    doc = {
        "schema": "heatmap",
        "methods": methods,
        "statements": statements[:top_n],
    }
    doc.update(meta)
    return doc


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------


# stack action -> DOT edge label
_EDGE_LABELS = {NOOP: "ε", PUSH: "push", POP: "pop"}

# (a source state, a sink state) -> fill colour
_NODE_FILL = {(True, True): "orange", (True, False): "palegreen",
              (False, True): "lightcoral"}


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_graph(results, findings, program) -> str:
    """The reachable control-state graph of a list of results in DOT,
    sources/sinks and witness paths highlighted; stack actions label the
    edges (push / pop / ε)."""
    nodes, edges = {}, {}
    for res in results:
        nodes.update(res.dsg.nodes)
        edges.update(res.dsg.edges)
    apps = [a for res in results for a in res.applications]
    source_states = {a.state for a in apps if a.source_categories}
    sink_states = {a.state for a in apps if a.sink_hits}
    witness_edges = set()
    witness_summaries = set()
    for f in findings:
        for step in f.witness_steps:
            if step.kind == "summary":
                witness_summaries.add((step.src, step.dst))
            else:
                witness_edges.add((step.src, step.kind, step.frame, step.dst))

    ordered = sorted(nodes, key=ControlState.sort_key)
    ids = {n: f"n{i}" for i, n in enumerate(ordered)}
    lines = ["digraph reachable_states {",
             "  rankdir=LR;",
             '  node [shape=box, fontname="monospace", fontsize=9];']
    for n in ordered:
        label = _dot_quote(
            f"{n.pos.method.class_name}.{n.pos.method.method_name}"
            f":{program.line_of(n.pos)}\\n@{n.pos.index}"
            f"{'+move' if n.pos.at_move else ''} {n.fp.canonical()}")
        fill = _NODE_FILL.get((n in source_states, n in sink_states))
        style = f', style=filled, fillcolor="{fill}"' if fill else ""
        lines.append(f'  {ids[n]} [label="{label}"{style}];')
    for e in sorted(edges, key=Edge.sort_key):
        label = _EDGE_LABELS[e.kind]
        if e.frame is not None:
            label += f" {_dot_quote(e.frame.canonical())}"
        attrs = [f'label="{label}"']
        if (e.src, e.kind, e.frame, e.dst) in witness_edges:
            attrs += ['color="red"', "penwidth=2", 'witness="1"']
        lines.append(f"  {ids[e.src]} -> {ids[e.dst]} [{', '.join(attrs)}];")
    for src, dst in sorted(witness_summaries,
                           key=lambda p: (p[0].sort_key(), p[1].sort_key())):
        if src in ids and dst in ids:
            lines.append(f"  {ids[src]} -> {ids[dst]} "
                         '[label="ε*", style=dashed, color="red", '
                         'penwidth=2, witness="1"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Serialization and schema validation
# ---------------------------------------------------------------------------


def to_json_bytes(doc) -> bytes:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline, in UTF-8, byte for byte.

    ``json.dumps`` cannot use its C encoder once ``indent`` is set, so this
    writer walks the document itself: containers recursively, strings
    through the encoder's own ``encode_basestring_ascii``, and the other
    scalars as ``json`` spells them. What ``json.dumps`` rejects (a set, a
    tuple key) raises the same ``TypeError``; circular documents are not
    detected.

    A dict met again at the same indent, such as a state reference shared
    by many findings, is encoded once per call: its text is joined from
    the chunks its first mention wrote. The memo is keyed by ``id`` and so
    dies with the call, while the document keeps every id alive.
    """
    out: list = []
    _write_json(doc, out, "\n", {})
    out.append("\n")
    return "".join(out).encode("utf-8")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return _json_scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_scalar(o) -> str:
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _json_float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _write_json(o, out: list, newline: str, memo: dict) -> None:
    """Append the chunks of ``o`` to ``out``; ``newline`` is a newline
    followed by the indent of the line ``o`` starts on. ``memo`` maps the
    (id, indent) of each dict written so far to the span of ``out`` that
    holds its chunks, or, once it is met again, to their joined text."""
    t = type(o)
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is dict or (t is not list and t is not tuple
                       and isinstance(o, dict)):
        if not o:
            out.append("{}")
            return
        slot = (id(o), len(newline))
        seen = memo.get(slot)
        if seen is not None:
            if type(seen) is not str:  # the second mention joins the first
                seen = memo[slot] = "".join(out[seen[0]:seen[1]])
            out.append(seen)
            return
        start = len(out)
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if type(key) is not str:
                key = _json_key(key)
            if type(value) is str:  # the common leaf, written inline
                out.append(f"{sep}{_encode_str(key)}: {_encode_str(value)}")
            else:
                out.append(f"{sep}{_encode_str(key)}: ")
                _write_json(value, out, inner, memo)
            sep = "," + inner
        out.append(newline + "}")
        memo[slot] = start, len(out)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            _write_json(value, out, inner, memo)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_json_scalar(o))


# ---------------------------------------------------------------------------
# Plain-text rendering for terminal use
# ---------------------------------------------------------------------------


def render_flow_report_text(doc: dict) -> str:
    out = [f"information-flow report: {doc['findingCount']} finding(s)"]
    for f in doc["findings"]:
        out.append(
            f"  [{f['category']}] {f['source']['class']}."
            f"{f['source']['method']}:{f['source']['line']}"
            f" -> {f['sink']['kind']} sink {f['sink']['class']}."
            f"{f['sink']['method']}:{f['sink']['line']}"
            f" (trigger {f['trigger']['entryPoint']}, unit {f['unit']})")
    for hint in doc.get("verdictHints", []):
        out.append(f"  note: {hint}")
    return "\n".join(out) + "\n"


def render_permissions_text(doc: dict) -> str:
    out = ["least-permissions report:"]
    out.append(f"  requested: {', '.join(doc['requested']) or '(none)'}")
    out.append(f"  reached:   {', '.join(doc['reached']) or '(none)'}")
    out.append(f"  over-privileged: {', '.join(doc['overPrivileged']) or '(none)'}")
    out.append(f"  missing:   {', '.join(doc['missing']) or '(none)'}")
    return "\n".join(out) + "\n"
