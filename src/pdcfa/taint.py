"""Taint lattice, API summaries, and source-to-sink finding extraction.

A taint store maps the same abstract addresses as the value store to sets of
sensitivity categories; joins are pointwise union and taint is only ever
propagated monotonically alongside values.
"""

from __future__ import annotations

import enum
from fnmatch import fnmatchcase

from .ir import record


class TaintVal(enum.Enum):
    LOCATION = "Location"
    FILE_SYSTEM = "FileSystem"
    SMS = "Sms"
    PHONE = "Phone"
    VOICE = "Voice"
    DEVICE_ID = "DeviceID"
    NETWORK = "Network"
    ID = "ID"
    TIME_OR_DATE = "TimeOrDate"
    DISPLAY = "Display"
    REFLECTION = "Reflection"
    IPC = "IPC"
    BROWSER_BOOKMARK = "BrowserBookmark"
    SD_CARD = "SdCard"
    BROWSER_HISTORY = "BrowserHistory"
    THREAD = "Thread"
    PICTURE = "Picture"
    CONTACT = "Contact"
    SENSOR = "Sensor"
    ACCOUNT = "Account"
    MEDIA = "Media"

    def canonical(self) -> str:
        return self.value


_CATEGORY_BY_NAME = {t.value: t for t in TaintVal}

SINK_KINDS = ("network", "file", "intent", "sms", "log")
RETURN_ABSTRACTIONS = ("any-string", "any-int", "null", "void")


class SummaryFormatError(Exception):
    pass


class MonotoneStore:
    """Addr -> frozenset of lattice elements; only ever grows under join.

    Lookups of absent addresses are empty. ``on_read``/``on_grow`` hooks let
    an engine track which worklist items read an address and revisit them
    when it grows. Subclasses differ only in ``_normalize``, applied to
    every joined set. ``join`` keeps each normalised union by (old set,
    joined set) in a table that a store and its copies share.
    """

    def __init__(self):
        self._data: dict = {}
        self._grows = 0  # joins that grew the store, carried over by copy()
        self._unions: dict = {}  # (old, joined) -> normalised union
        self.on_read = None
        self.on_grow = None

    def _normalize(self, values: frozenset) -> frozenset:
        return values

    def lookup(self, addr) -> frozenset:
        if self.on_read is not None:
            self.on_read(addr)
        return self._data.get(addr, frozenset())

    def join(self, addr, values) -> bool:
        values = frozenset(values)
        old = self._data.get(addr, frozenset())
        if values <= old:  # old is normalised, and normalising it is a no-op
            return False
        key = (old, values)
        new = self._unions.get(key)
        if new is None:
            new = self._unions[key] = self._normalize(old | values)
        if new == old:
            return False
        self._data[addr] = new
        self._grows += 1
        if self.on_grow is not None:
            self.on_grow(addr)
        return True

    def items(self):
        return self._data.items()

    def copy(self):
        other = type(self)()
        other._data = dict(self._data)
        other._grows = self._grows
        other._unions = self._unions
        return other

    def fingerprint(self) -> int:
        """The number of growing joins into this store and the stores it
        was copied from. A store only grows, so along one chain of copies
        it is unchanged exactly when this number is."""
        return self._grows


class TaintStore(MonotoneStore):
    """Addr -> set of TaintVal; a join-semilattice under pointwise union."""


# ---------------------------------------------------------------------------
# API summaries
# ---------------------------------------------------------------------------


@record
class ApiSummary:
    """One record of the summary table.

    Patterns cover class (with ``*`` globbing) and method name; parameter
    lists are always wildcarded. ``sink_categories=None`` means the sink
    reports every category that reaches it.
    """

    class_pattern: str
    method_name: str
    role: str  # source | sink | propagate | neutral
    source_categories: tuple = ()
    sink_kind: str | None = None
    sink_categories: tuple | None = None
    return_abstraction: str = "void"
    permissions: tuple = ()

    def key(self) -> str:
        return f"{self.class_pattern}.{self.method_name}"


class SummaryTable:
    def __init__(self, records: list):
        self.records: list[ApiSummary] = list(records)

    def match(self, class_chain, method_name: str) -> ApiSummary | None:
        """First record matching the method on the most-derived class first."""
        for cls in class_chain:
            for rec in self.records:
                if rec.method_name == method_name \
                        and fnmatchcase(cls, rec.class_pattern):
                    return rec
        return None


def _parse_categories(text: str, lineno: int) -> tuple:
    cats = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in _CATEGORY_BY_NAME:
            raise SummaryFormatError(
                f"line {lineno}: unknown taint category {part!r}")
        cats.append(_CATEGORY_BY_NAME[part])
    if not cats:  # a source that taints nothing, a sink that reports nothing
        raise SummaryFormatError(f"line {lineno}: empty category list")
    return tuple(cats)


def parse_summaries(text: str) -> SummaryTable:
    """Parse the summary table format.

    One record per line:
    ``summary <class-pattern> <method> role=<...> ret=<...> perms=<P1,...>``
    where role is ``source:cat,...``, ``sink:kind[:cat,...]``, ``propagate``
    or ``neutral``. A field appears at most once, and a category list names
    at least one category. Blank lines and ``#``/``;`` comments are
    skipped. A line ends only at ``\\n``, as in ``ir.parse_program``; any
    other whitespace separates fields.
    """
    records = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        parts = line.split()
        if parts[0] != "summary" or len(parts) < 4:
            raise SummaryFormatError(f"line {lineno}: expected "
                                     "'summary <class> <method> ...'")
        class_pattern, method_name = parts[1], parts[2]
        role = None
        source_cats: tuple = ()
        sink_kind = None
        sink_cats = None
        ret = "void"
        perms: tuple = ()
        seen = set()
        for item in parts[3:]:
            if "=" not in item:
                raise SummaryFormatError(f"line {lineno}: malformed field {item!r}")
            key, _, value = item.partition("=")
            if key in seen:
                raise SummaryFormatError(f"line {lineno}: repeated field {key!r}")
            seen.add(key)
            if key == "role":
                bits = value.split(":")
                role = bits[0]
                if role == "source":
                    if len(bits) != 2:
                        raise SummaryFormatError(
                            f"line {lineno}: source needs categories")
                    source_cats = _parse_categories(bits[1], lineno)
                elif role == "sink":
                    if len(bits) not in (2, 3) or bits[1] not in SINK_KINDS:
                        raise SummaryFormatError(
                            f"line {lineno}: sink needs a kind from "
                            f"{SINK_KINDS}")
                    sink_kind = bits[1]
                    if len(bits) == 3:
                        sink_cats = _parse_categories(bits[2], lineno)
                elif role not in ("propagate", "neutral"):
                    raise SummaryFormatError(f"line {lineno}: unknown role {role!r}")
            elif key == "ret":
                if value not in RETURN_ABSTRACTIONS:
                    raise SummaryFormatError(
                        f"line {lineno}: ret must be one of {RETURN_ABSTRACTIONS}")
                ret = value
            elif key == "perms":
                perms = tuple(p for p in value.split(",") if p)
            else:
                raise SummaryFormatError(f"line {lineno}: unknown field {key!r}")
        if role is None:
            raise SummaryFormatError(f"line {lineno}: missing role")
        records.append(ApiSummary(class_pattern, method_name, role,
                                  source_cats, sink_kind, sink_cats,
                                  ret, perms))
    return SummaryTable(records)


def load_summaries(path) -> SummaryTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_summaries(fh.read())


def apply_summary(summary: ApiSummary, arg_vals, arg_taints):
    """Return (ret_val, ret_taint, sink_hits) for one summary application.

    ``ret_val`` is a frozenset of abstract values per the record's return
    abstraction; sink hits pair each flowing category with the sink kind.
    """
    from .machine import SUMMARY_RETURNS  # machine imports this module

    all_arg_taint = frozenset().union(*arg_taints) if arg_taints else frozenset()
    ret_taint: frozenset = frozenset()
    sink_hits: frozenset = frozenset()
    if summary.role == "source":
        ret_taint = frozenset(summary.source_categories)
    elif summary.role == "propagate":
        ret_taint = all_arg_taint
    elif summary.role == "sink":
        flowing = all_arg_taint
        if summary.sink_categories is not None:
            flowing = flowing & frozenset(summary.sink_categories)
        sink_hits = frozenset((t, summary.sink_kind) for t in flowing)
    return SUMMARY_RETURNS[summary.return_abstraction], ret_taint, sink_hits


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------


@record
class TriggerContext:
    unit: str
    entry_point: str


@record
class TaintFinding:
    category: TaintVal
    source_state: object  # ControlState
    source_line: int
    sink_state: object
    sink_kind: str
    sink_line: int
    trigger: TriggerContext
    sink_permissions: tuple = ()
    # the witness's shared (states, edges) segments: source to sink, or
    # entry to source and entry to sink
    segments: tuple = ()

    @property
    def witness(self) -> tuple:  # ControlStates
        return tuple(s for states, _ in self.segments for s in states)

    def sort_key(self):
        return (self.trigger.unit, self.source_line, self.sink_line,
                self.category.value, self.trigger.entry_point,
                self.sink_state.pos.sort_key())


def extract_findings(trace) -> list:
    """Build deduplicated, deterministically ordered findings of a
    saturation (``eps.SaturationTrace``), none if it has no triggers.

    A trigger reads the part of the fixpoint run's graph that its entry
    point's root reaches (``reach.RootMasks``). A source belongs to the
    first trigger, in declared order, whose part holds it; sources are
    pooled across triggers so that flows crossing entry points (through
    saturated field addresses) still name their introducing source. A
    witness of a trigger's own source is the stack-respecting path from
    source to sink in its part; otherwise, or when that path is missing,
    it is the path from the owner's entry to the source in the owner's
    part followed by the path from the trigger's entry to the sink.

    One pass over the run's applications (sorted by state) groups sources
    per category by position, keeping the first state, and sinks per root
    bit by (category, position), keeping the first application and, of
    its hits in (category, kind) order, the first kind. A trigger's
    findings are the product of its bit's sink groups and the category's
    source groups: one per (trigger, category, source position, sink
    position), stably sorted by ``TaintFinding.sort_key``. Witness paths
    are read from one BFS tree per (bit, source state), and each (bit,
    from, to) segment is built once and shared by every finding whose
    witness holds it; the trees are dropped on return.
    """
    run, triggers = trace.fixpoint, trace.triggers
    if not triggers:
        return []
    masks = run.masks
    roots = [masks.roots[entry] for _trigger, entry in triggers]
    first: dict = {}  # bit -> the first trigger of its root
    for i, (_root, bit) in enumerate(roots):
        first.setdefault(bit, i)
    declared = sum(1 << bit for bit in first)
    sources: dict = {}  # category -> {position: (state, line, owner)}
    sinks: dict = {}  # bit -> {(category, position): (application, kind)}
    for app in run.applications:
        mask = masks.mask(app.state) & declared
        if not mask:
            continue
        pos = app.state.pos
        if app.source_categories:
            source = app.state, app.line, min(first[b] for b in _bits(mask))
            for cat in app.source_categories:
                sources.setdefault(cat, {}).setdefault(pos, source)
        if app.sink_hits:
            hits = sorted(app.sink_hits, key=lambda h: (h[0].value, h[1]))
            for bit in _bits(mask):
                groups = sinks.setdefault(bit, {})
                for cat, kind in hits:
                    groups.setdefault((cat, pos), (app, kind))

    findings = []
    trees: dict = {}  # (bit, source state) -> BFS tree, see _segment
    segments: dict = {}  # (bit, from, to) -> witness segment
    for i, (trigger, _entry) in enumerate(triggers):
        for (cat, _pos), (app, kind) in sinks.get(roots[i][1], {}).items():
            for src_state, src_line, owner in sources.get(cat, {}).values():
                findings.append(TaintFinding(
                    category=cat, source_state=src_state,
                    source_line=src_line, sink_state=app.state,
                    sink_kind=kind, sink_line=app.line, trigger=trigger,
                    sink_permissions=app.permissions,
                    segments=_witness(run, roots, owner, src_state, i,
                                      app.state, trees, segments)))
    findings.sort(key=TaintFinding.sort_key)
    return findings


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _segment(run, bit, frm, to, trees, segments):
    """The (states, edges) of the path from ``frm`` to ``to`` in the part
    of ``run`` that holds ``bit``, or (None, None); each segment is
    searched for once, in the BFS trees of ``trees``, and kept in
    ``segments`` for as long as the caller holds it."""
    key = (bit, frm, to)
    seg = segments.get(key)
    if seg is None:
        from . import reach

        # looked up on the module at call time, so wrappers installed there
        # see every witness search
        edges = reach.reconstruct_path_steps(run, frm, to, trees, bit)
        if edges is None:
            seg = None, None
        else:
            seg = (frm,) + tuple(e.dst for e in edges), tuple(edges)
        segments[key] = seg
    return seg


def _witness(run, roots, owner, src_state, i, sink_state, trees,
             segments) -> tuple:
    """The segments of the witness of trigger ``i``'s sink at
    ``sink_state`` for the source at ``src_state`` of trigger ``owner``
    (``roots`` holds each trigger's (root, bit)): the path from source to
    sink, or else the paths from the entries to the source and to the
    sink."""
    (src_root, src_bit), (sink_root, sink_bit) = roots[owner], roots[i]
    if owner == i:
        seg = _segment(run, sink_bit, src_state, sink_state, trees,
                       segments)
        if seg[0] is not None:
            return seg,
    return tuple(seg for seg in (
        _segment(run, src_bit, src_root, src_state, trees, segments),
        _segment(run, sink_bit, sink_root, sink_state, trees, segments))
        if seg[0] is not None)
