"""Analyst-facing outputs: flow report, permissions report, heat map, graph.

Reports serialize as JSON against schemas shipped in ``pdcfa/schemas``; the
graph is emitted as DOT (SVG rendering is external tooling's job). All
documents are byte-deterministic for fixed inputs and embed the config echo
and input digests passed in ``meta``. Verdict hints only restate findings
and permission gaps; the tool never rules on maliciousness by itself.
"""

from __future__ import annotations

import io
import json
import re
from fnmatch import fnmatchcase
from json.encoder import encode_basestring_ascii as _encode_str

from .ir import StmtPos, record
from .permissions import PermissionReport
from .reach import NOOP, POP, PUSH, SUMMARY, ControlState, Edge
from .taint import TaintVal

_ATOM_RE = re.compile(r"\s*([A-Za-z]+)\s*\(\s*([^()]*)\s*\)\s*")

_ATOM_NAMES = ("classIs", "methodIs", "lineIn", "taintHas", "sinkKindIs",
               "permissionIs", "unitIs")


class PredicateError(Exception):
    pass


@record
class PredicateAtom:
    name: str
    args: tuple

    def text(self) -> str:
        return f"{self.name}({','.join(str(a) for a in self.args)})"


@record
class Predicate:
    """Conjunction of filter atoms over findings."""

    atoms: tuple

    def text(self) -> str:
        return " and ".join(a.text() for a in self.atoms)

    def matches(self, finding) -> bool:
        return all(_atom_matches(a, finding) for a in self.atoms)


def parse_predicate(text: str) -> Predicate:
    """Parse e.g. ``taintHas(Location) and classIs(Photo*)``; only an
    ``and`` after an atom's closing parenthesis joins it to the next atom,
    so an argument may hold the word (``classIs(com/and/Foo)``)."""
    if not text.strip():
        raise PredicateError("empty predicate")
    atoms = []
    for part in re.split(r"(?<=\))\s*and\b", text):
        part = part.strip()
        m = _ATOM_RE.fullmatch(part)
        if m is None:
            raise PredicateError(f"malformed predicate atom {part!r}")
        name, rawargs = m.group(1), m.group(2)
        if name not in _ATOM_NAMES:
            raise PredicateError(f"unknown predicate atom {name!r}")
        args = tuple(a.strip() for a in rawargs.split(",") if a.strip())
        if name == "lineIn":
            try:
                lo, hi = map(int, args)
            except ValueError:
                raise PredicateError(f"lineIn takes two integers (lo, hi), "
                                     f"got {part!r}") from None
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


def emit_flow_report(findings, predicate, program, meta=None) -> dict:
    """Findings filtered by the predicate (all pass when absent)."""
    meta = meta or {}
    kept = [f for f in findings if predicate is None or predicate.matches(f)]
    refs: dict = {}  # state -> its ref dict, shared by every mention

    def ref(state) -> dict:
        r = refs.get(state)
        if r is None:
            r = refs[state] = {"class": state.pos.method.class_name,
                               "method": state.pos.method.method_name,
                               "line": program.line_of(state.pos)}
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
            "witness": _Witness(f.segments, ref),
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


class _Witness:
    """A finding's witness in the flow report: its states' refs, read from
    its shared segments when iterated; the JSON writer writes their text."""

    __slots__ = ("segments", "ref")

    def __init__(self, segments, ref):
        self.segments, self.ref = segments, ref

    def __iter__(self):
        return (self.ref(s) for states, _ in self.segments for s in states)

    def __len__(self):
        return sum(len(states) for states, _ in self.segments)


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


_TOP_N = 50  # statements the heat map lists, the most visited first


def emit_heat_map(trace, program, meta=None) -> dict:
    """Visits of a saturation's (``eps.SaturationTrace``) triggers' parts
    of its fixpoint run's graph (``reach.RootMasks.visits``), aggregated
    per method and per statement, descending; the ``_TOP_N`` most visited
    statements."""
    meta = meta or {}
    per_stmt: dict = {}
    per_method: dict = {}
    visits = (trace.fixpoint.masks.visits(e for _t, e in trace.triggers)
              if trace.triggers else ())
    for state, count in visits:
        key = (state.pos.method, state.pos.index)
        per_stmt[key] = per_stmt.get(key, 0) + count
        per_method[state.pos.method] = \
            per_method.get(state.pos.method, 0) + count
    methods = [{"class": m.class_name, "method": m.method_name,
                "visits": v}
               for m, v in sorted(per_method.items(),
                                  key=lambda kv: (-kv[1], kv[0].sort_key()))]
    ranked = sorted(per_stmt.items(),
                    key=lambda kv: (-kv[1], kv[0][0].sort_key(), kv[0][1]))
    statements = [{"class": m.class_name, "method": m.method_name,
                   "index": idx,
                   "line": program.line_of(StmtPos(m, idx)),
                   "visits": v}
                  for (m, idx), v in ranked[:_TOP_N]]
    doc = {
        "schema": "heatmap",
        "methods": methods,
        "statements": statements,
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


_DOT_CHUNK = 256  # lines the DOT writer joins into one chunk


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_graph(result, findings, program) -> str:
    """The reachable control-state graph of ``result`` in DOT (no states for
    None), sources/sinks and witness paths highlighted; stack actions label
    the edges (push / pop / ε). A pass over the sorted nodes writes each
    node, a second pass their out-edges, sorted in the graph; the text is
    joined from chunks of ``_DOT_CHUNK`` lines, so no list of every line is
    held. Each position's, frame pointer's and frame's text is made once,
    and each witness segment's edges are read once: a graph edge among
    them is marked, and each ``SUMMARY`` edge drawn after the graph's."""
    nodes = result.dsg.nodes if result is not None else ()
    apps = result.applications if result is not None else ()
    source_states = {a.state for a in apps if a.source_categories}
    sink_states = {a.state for a in apps if a.sink_hits}
    witness = {e for seg in {id(seg): seg for f in findings
                             for seg in f.segments}.values() for e in seg[1]}

    ordered = sorted(nodes, key=ControlState.sort_key)
    ids = {n: f"n{i}" for i, n in enumerate(ordered)}
    texts: dict = {None: ""}  # StmtPos, pointer or frame -> its DOT text
    chunks: list = []  # the text so far, ``_DOT_CHUNK`` lines each
    lines = ["digraph reachable_states {\n",
             "  rankdir=LR;\n",
             '  node [shape=box, fontname="monospace", fontsize=9];\n']

    def spill(at_least: int = _DOT_CHUNK) -> None:
        if len(lines) >= at_least:
            chunks.append("".join(lines))
            lines.clear()

    for n in ordered:
        pos, fp = texts.get(n.pos), texts.get(n.fp)
        if pos is None:
            m = n.pos.method
            pos = texts[n.pos] = _dot_quote(
                f"{m.class_name}.{m.method_name}:{program.line_of(n.pos)}"
                f"\\n@{n.pos.index}{'+move' if n.pos.at_move else ''}")
        if fp is None:
            fp = texts[n.fp] = _dot_quote(n.fp.canonical())
        fill = _NODE_FILL.get((n in source_states, n in sink_states))
        style = f', style=filled, fillcolor="{fill}"' if fill else ""
        lines.append(f'  {ids[n]} [label="{pos} {fp}"{style}];\n')
        spill()
    for n in ordered:
        for e in result.dsg.out_edges(n):
            frame = texts.get(e.frame)
            if frame is None:
                frame = texts[e.frame] = " " + _dot_quote(e.frame.canonical())
            mark = (', color="red", penwidth=2, witness="1"'
                    if e in witness else "")
            lines.append(f'  {ids[n]} -> {ids[e.dst]} [label='
                         f'"{_EDGE_LABELS[e.kind]}{frame}"{mark}];\n')
        spill()
    for e in sorted((e for e in witness if e.kind == SUMMARY),
                    key=Edge.sort_key):
        if e.src in ids and e.dst in ids:
            lines.append(f"  {ids[e.src]} -> {ids[e.dst]} "
                         '[label="ε*", style=dashed, color="red", '
                         'penwidth=2, witness="1"];\n')
    lines.append("}\n")
    spill(0)
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Serialization and schema validation
# ---------------------------------------------------------------------------


def to_json_bytes(doc, fh=None) -> bytes | None:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline, in UTF-8, byte for byte: returned, or written to the binary
    file ``fh`` in pieces of about ``_CHUNK`` characters, so the text is
    not held whole. ``json.dumps`` cannot use its C encoder once ``indent``
    is set; this writer encodes each flat dict (its values scalars or lists
    of scalars: a state ref, a trigger, a sink) and each witness segment
    once per call and indent, memoised by ``id``. What ``json.dumps``
    rejects raises the same ``TypeError``."""
    buf = io.BytesIO() if fh is None else fh
    out: list = []
    size = measured = 0  # the length of the first ``measured`` strings

    def spill(out: list, at_least: int = _CHUNK) -> None:
        nonlocal size, measured
        size += sum(map(len, out[measured:]))
        measured = len(out)
        if size >= at_least:
            buf.write("".join(out).encode("utf-8"))
            out.clear()
            size = measured = 0

    _write_json(doc, out, "\n", {}, spill)
    out.append("\n")
    spill(out, 0)
    return buf.getvalue() if fh is None else None


_CHUNK = 1 << 14  # characters gathered before the JSON writer writes them
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _write_json(o, out: list, newline: str, memo: dict, spill) -> None:
    """Append the chunks of ``o`` to ``out``; ``newline`` is a newline
    followed by the indent of the line ``o`` starts on. ``memo`` maps the
    (id, indent) of each flat dict and witness segment written so far to
    its text. ``spill(out)`` may write ``out`` away after a list's
    non-scalar item, which no flat dict holds."""
    t = type(o)
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is _Witness:  # from its segments' text, made once per indent
        inner = newline + "  "
        refs = memo.setdefault(len(inner), {})  # state -> its ref's text
        sep = "[" + inner
        for seg in o.segments:
            text = memo.get((id(seg), len(inner)))
            if text is None:
                for state in seg[0]:
                    if state not in refs:
                        chunks: list = []
                        _write_json(o.ref(state), chunks, inner, memo, spill)
                        refs[state] = "".join(chunks)
                text = memo[id(seg), len(inner)] = ("," + inner).join(
                    [refs[state] for state in seg[0]])
            out += (sep, text)
            sep = "," + inner
        out.append(newline + "]" if o.segments else "[]")
    elif t is dict or (t is not list and t is not tuple
                       and isinstance(o, dict)):
        text = memo.get((id(o), len(newline))) if o else "{}"
        if text is not None:
            out.append(text)
            return
        start = len(out)
        flat = True
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):  # spelled, or rejected, as json does
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(f"keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                key = json.dumps(key)
            vt = type(value)
            if vt is str:  # the common leaves, written inline
                out.append(f"{sep}{_encode_str(key)}: {_encode_str(value)}")
            elif vt is int:
                out.append(f"{sep}{_encode_str(key)}: {int.__repr__(value)}")
            else:
                out.append(f"{sep}{_encode_str(key)}: ")
                _write_json(value, out, inner, memo, spill)
                if flat and vt not in _SCALAR_TYPES:
                    flat = vt in (list, tuple) and all(
                        type(v) in _SCALAR_TYPES for v in value)
            sep = "," + inner
        out.append(newline + "}")
        if flat:
            memo[id(o), len(newline)] = "".join(out[start:])
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            out.append(sep)
            _write_json(value, out, inner, memo, spill)
            if type(value) not in _SCALAR_TYPES:
                spill(out)
            sep = "," + inner
        out.append(newline + "]")
    elif o is None or t is bool:
        out.append("null" if o is None else "true" if o else "false")
    else:
        out.append(json.dumps(o))  # spelled, or rejected, as json does


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
