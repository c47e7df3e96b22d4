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
from operator import methodcaller

from .ir import StmtPos, record
from .permissions import PermissionReport
from .reach import NOOP, POP, PUSH, SUMMARY, DyckStateGraph, Edge
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


def _ranked(records) -> tuple:
    """The distinct ``records`` in ``sort_key`` order, and each one's rank
    in it. No two distinct records share a sort key, so ranks compare as
    their records' keys do."""
    ordered = sorted(records, key=methodcaller("sort_key"))
    return ordered, {r: i for i, r in enumerate(ordered)}


def export_graph(result, findings, program) -> str:
    """The reachable control-state graph of ``result`` in DOT (no states for
    None), sources/sinks and witness paths highlighted; stack actions label
    the edges (push / pop / ε). The nodes are drawn in
    ``ControlState.sort_key`` order, then each node's out-edges in
    ``Edge.sort_key`` order, compared as ints. Each distinct position and
    frame pointer is ranked by its own sort key, and its text made, once; a
    node sorts by one int, its position rank times the number of frame
    pointers plus its frame pointer rank, which orders as (position rank,
    frame pointer rank). A node's out-edges, when it has more than one,
    sort by (stack action, frame's sort key with None first, target node's
    index). Each frame's text is made once. The text is joined from
    chunks of ``_DOT_CHUNK`` lines, so no list of every line is held. Each
    witness segment's edges are read once: a graph edge among them is
    marked, and each ``SUMMARY`` edge drawn after the graph's."""
    dsg = result.dsg if result is not None else DyckStateGraph()
    apps = result.applications if result is not None else ()
    source_states = {a.state for a in apps if a.source_categories}
    sink_states = {a.state for a in apps if a.sink_hits}
    styles = {n: ', style=filled, fillcolor='
                 f'"{_NODE_FILL[n in source_states, n in sink_states]}"'
              for n in source_states | sink_states}
    witness = {e for seg in {id(seg): seg for f in findings
                             for seg in f.segments}.values() for e in seg[1]}

    positions, pos_ranks = _ranked({n.pos for n in dsg.nodes})
    pointers, fp_ranks = _ranked({n.fp for n in dsg.nodes})
    width = len(pointers)  # a node's rank: pos rank * width + fp rank
    by_rank = {pos_ranks[n.pos] * width + fp_ranks[n.fp]: n
               for n in dsg.nodes}
    ranks = sorted(by_rank)
    ordered = [by_rank[r] for r in ranks]
    index = {n: i for i, n in enumerate(ordered)}
    pos_texts = [_dot_quote(
        f"{p.method.class_name}.{p.method.method_name}:{program.line_of(p)}"
        f"\\n@{p.index}{'+move' if p.at_move else ''}") for p in positions]
    fp_texts = [_dot_quote(fp.canonical()) for fp in pointers]
    frame_texts: dict = {None: ""}
    chunks: list = []  # the text so far, ``_DOT_CHUNK`` lines each
    lines = ["digraph reachable_states {\n",
             "  rankdir=LR;\n",
             '  node [shape=box, fontname="monospace", fontsize=9];\n']

    def spill() -> None:
        chunks.append("".join(lines))
        lines.clear()

    for i, r in enumerate(ranks):
        pos, fp = divmod(r, width)
        lines.append(f'  n{i} [label="{pos_texts[pos]} {fp_texts[fp]}"'
                     f'{styles.get(ordered[i], "")}];\n')
        if len(lines) >= _DOT_CHUNK:
            spill()
    for i, n in enumerate(ordered):
        out = dsg.edges_from(n)
        if len(out) > 1:
            out = sorted(out, key=lambda e: (
                e.kind, () if e.frame is None else e.frame.sort_key(),
                index[e.dst]))
        for e in out:
            frame = frame_texts.get(e.frame)
            if frame is None:
                frame = frame_texts[e.frame] = " " + _dot_quote(
                    e.frame.canonical())
            mark = (', color="red", penwidth=2, witness="1"'
                    if e in witness else "")
            lines.append(f'  n{i} -> n{index[e.dst]} [label="'
                         f'{_EDGE_LABELS[e.kind]}{frame}"{mark}];\n')
        if len(lines) >= _DOT_CHUNK:
            spill()
    for e in sorted((e for e in witness if e.kind == SUMMARY),
                    key=Edge.sort_key):
        if e.src in index and e.dst in index:
            lines.append(f"  n{index[e.src]} -> n{index[e.dst]} "
                         '[label="ε*", style=dashed, color="red", '
                         'penwidth=2, witness="1"];\n')
    lines.append("}\n")
    spill()
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
    once per call and indent, memoised by ``id``. A flow report's finding
    entry (a dict of exactly the keys ``category``, ``sink``, ``source``,
    ``trigger``, ``unit`` and ``witness``, its witness a ``_Witness`` and
    its category and unit strings) is written with one format, from the
    memoised texts of its sink, source and trigger at its indent and its
    witness segments' texts; any other dict takes the general path. What
    ``json.dumps`` rejects raises the same ``TypeError``."""
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
# the keys of a flow report's finding entry, which ``_write_json`` writes
# with one format when its witness is a ``_Witness``
_ENTRY_KEYS = frozenset(("category", "sink", "source", "trigger", "unit",
                         "witness"))


def _write_json(o, out: list, newline: str, memo: dict, spill) -> None:
    """Append the chunks of ``o`` to ``out``; ``newline`` is a newline
    followed by the indent of the line ``o`` starts on. ``memo`` maps the
    (id, indent) of each flat dict and witness segment written so far to
    its text. ``spill(out)`` may write ``out`` away after a list's
    non-scalar item, which no flat dict holds; a finding entry's parts are
    gathered apart (``_text``), so no spill splits them."""
    t = type(o)
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is _Witness:
        _write_witness(o, out, newline, memo)
    elif t is dict and len(o) == 6 and o.keys() == _ENTRY_KEYS \
            and type(o["witness"]) is _Witness \
            and type(o["category"]) is str and type(o["unit"]) is str:
        # a flow report's finding: one format over its parts' texts
        inner = newline + "  "
        get, n = memo.get, len(inner)
        sink, source, trigger = o["sink"], o["source"], o["trigger"]
        out.append(
            f'{{{inner}"category": {_encode_str(o["category"])},'
            f'{inner}"sink": {get((id(sink), n)) or _text(sink, inner, memo)},'
            f'{inner}"source": '
            f'{get((id(source), n)) or _text(source, inner, memo)},'
            f'{inner}"trigger": '
            f'{get((id(trigger), n)) or _text(trigger, inner, memo)},'
            f'{inner}"unit": {_encode_str(o["unit"])},{inner}"witness": ')
        _write_witness(o["witness"], out, inner, memo)
        out.append(newline + "}")
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


def _text(o, newline: str, memo: dict) -> str:
    """``o``'s text, gathered apart from the written stream, which it does
    not spill."""
    out: list = []
    _write_json(o, out, newline, memo, lambda out: None)
    return "".join(out)


def _write_witness(w: _Witness, out: list, newline: str, memo: dict) -> None:
    """Append the text of the witness ``w`` to ``out``: its segments'
    texts, each made once per call and indent. ``memo`` maps an indent's
    length to its refs' texts by state, and a segment's (id, indent) to its
    text."""
    inner = newline + "  "
    sep = "[" + inner
    for seg in w.segments:
        text = memo.get((id(seg), len(inner)))
        if text is None:
            refs = memo.setdefault(len(inner), {})
            for state in seg[0]:
                if state not in refs:
                    refs[state] = _text(w.ref(state), inner, memo)
            text = memo[id(seg), len(inner)] = ("," + inner).join(
                [refs[state] for state in seg[0]])
        out += (sep, text)
        sep = "," + inner
    out.append(newline + "]" if w.segments else "[]")


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
