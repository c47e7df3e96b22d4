"""Reachability engines over the abstract machine.

``analyze`` starts every engine run; ``AnalysisConfig.mode`` picks the
engine. Both engines read one transition relation, the machine's step
functions, whose output is already the Dyck state graph's edges; they differ
only in which frames they let top the continuation stack:

* ``pushdown`` keeps the stack exact: it maintains epsilon summaries so a
  pop is propagated to exactly the push sites with a balanced path to it,
  and steps a stack-dependent state under each frame that can top it. It
  records calling contexts once per entry node (a root or a push target),
  not once per node, and hands them only to the stack-dependent nodes
  the entry reaches on balanced paths.
* ``finite`` finitizes the stack in the traditional way: returns flow
  to every continuation merged at the same context key (the callee frame
  pointer), and throws link to every recorded handler whose guarded region
  can reach the throwing method, so it computes a superset of the pushdown
  result. The throw rule is its own: no single top-frame hypothesis
  expresses it.

Both run a worklist to a simultaneous fixpoint of one graph (its nodes,
edges and summaries, which are ``SUMMARY`` edges) and one global widened
store pair. Worklist order is LIFO with deterministic tie-breaking, so
results are identical across runs. A run may start from several entry
methods at once, each initial state a root with an empty stack;
entry-point saturation makes one such app-wide run. A complete run marks
each node, and each frame that may top a stack-dependent node, with the
roots that reach it, one bit per root (``RootMasks``). A root's bit marks
the part of the graph a run from that root alone would build over the same
store pair: the reports read each entry point's findings, visits and
witnesses from it without stepping the machine.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import deque
from functools import reduce
from operator import or_

from . import machine
from .ir import MethodRef, PopHandler, Program, Return, StmtPos, Throw, record
from .machine import (
    AllocPolicy,
    ControlState,
    Edge,
    FramePointer,
    FunFrame,
    HandlerFrame,
    NOOP,
    POP,
    PUSH,
    SUMMARY,
    Store,
    frame_pointer_zero,
)
from .taint import SummaryTable, TaintStore

PUSHDOWN = "pushdown"
FINITE = "finite"


class DyckStateGraph:
    """A run's one node table and adjacency: ``nodes`` maps each control
    state to its dense int id, in discovery order, ``states`` each id back,
    and ``out[id]`` each out-edge of the node to its target's id, in
    insertion order. ``out`` holds the machine's no-op, push and pop edges
    and each ε-summary as a ``SUMMARY`` edge; ``edges`` leaves those out,
    and ``epsilon_summaries`` is their (source, target) pairs. ``out_edges``
    sorts a node's out-edges once, until it gains one; summaries sort last."""

    def __init__(self):
        self.nodes: dict = {}  # state -> id
        self.states: list = []  # id -> state
        self.out: list = []  # id -> {edge: target id}
        self._sorted: dict = {}  # id -> its out-edges, sorted

    @property
    def edges(self) -> dict:
        return {e: None for out in self.out for e in out if e.kind != SUMMARY}

    @property
    def epsilon_summaries(self) -> frozenset:
        return frozenset((e.src, e.dst) for out in self.out for e in out
                         if e.kind == SUMMARY)

    def add_node(self, state: ControlState) -> int:
        """The id of ``state``, making it a node on first sight."""
        sid = len(self.states)
        known = self.nodes.setdefault(state, sid)
        if known == sid:
            self.states.append(state)
            self.out.append({})
        return known

    def add_edge(self, src: int, e: Edge, dst: int) -> bool:
        """Add ``e`` from node ``src`` to node ``dst``, unless it is held."""
        out = self.out[src]
        if e in out:
            return False
        out[e] = dst
        return True

    def edges_from(self, s: ControlState) -> dict:
        """``s``'s out-edges, unsorted, summaries included."""
        return self.out[self.nodes[s]]

    def out_edges(self, s: ControlState) -> list:
        sid = self.nodes[s]
        out, edges = self.out[sid], self._sorted.get(sid)
        if edges is None or len(edges) != len(out):  # none, or it grew
            edges = self._sorted[sid] = sorted(out, key=Edge.sort_key)
        return edges


@record
class SummaryApplication:
    """One API summary applied at a control state (merged over revisits)."""

    state: ControlState
    line: int
    summary_key: str
    sink_hits: frozenset  # of (TaintVal, kind)
    permissions: tuple
    source_categories: tuple

    def sort_key(self):
        return (self.state.sort_key(), self.summary_key)


@record
class AnalysisConfig:
    mode: str = PUSHDOWN
    k: int = 1
    heap_context: bool = False
    max_states: int = 500_000
    max_seconds: float = 300.0

    def __post_init__(self):
        if self.mode not in (PUSHDOWN, FINITE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.k <= 4:
            raise ValueError("k must be between 0 and 4")
        # NaN fails every comparison, so a NaN deadline would never trip
        if self.max_states <= 0 or not 0 < self.max_seconds < math.inf:
            raise ValueError("budgets must be finite and positive")

    def policy(self) -> AllocPolicy:
        return AllocPolicy(self.k, self.heap_context)

    def deadline(self) -> float:
        """A deadline ``max_seconds`` from now, on the clock the engines
        check it against."""
        return time.monotonic() + self.max_seconds


@record(mutable=True)
class AnalysisResult:
    mode: str
    dsg: DyckStateGraph
    final_store: Store
    final_taint: TaintStore
    visit_counts: dict
    complete: bool
    limit_reason: str | None
    applications: list  # sorted by SummaryApplication.sort_key
    masks: RootMasks | None = None  # a complete run's, None at a limit


class _Recorder:
    def __init__(self, program: Program):
        self.program = program
        self._apps: dict = {}

    def summary_applied(self, state, rec, sink_hits):
        key = (state, rec.key())
        hits = frozenset(sink_hits)
        old = self._apps.get(key)
        if old is not None:
            hits |= old.sink_hits
        self._apps[key] = SummaryApplication(
            state=state, line=self.program.line_of(state.pos),
            summary_key=rec.key(), sink_hits=hits,
            permissions=rec.permissions,
            source_categories=rec.source_categories if rec.role == "source"
            else ())

    def applications(self) -> list:
        return sorted(self._apps.values(), key=SummaryApplication.sort_key)


_HYP_ANY = "<any>"


class _BaseEngine:
    """One run from the initial states of ``entries``, its roots.

    The run steps each worklist item under the store pair it grows. Readers
    tracking re-steps an item whenever an address it read grows, so the
    graph ends up holding each item's edges under the final pair.

    The run's graph is its node table, and the run's own lists and maps
    are keyed by the graph's node ids.

    The run stops, incomplete, at a worklist pop once its graph holds more
    than ``cfg.max_states`` nodes or the clock has passed ``deadline``.
    """

    def __init__(self, program: Program, entries: tuple, init_store: Store,
                 init_taint: TaintStore, cfg: AnalysisConfig,
                 summaries: SummaryTable, deadline: float):
        for entry in entries:
            if entry not in program.methods:
                raise machine.ResolveError(f"unknown entry {entry.sig()}")
        self.program = program
        self.entries = entries
        self.cfg = cfg
        self.policy = cfg.policy()
        self.summaries = summaries
        self.deadline = deadline
        self.roots = [machine.state_at(program.starts[e],
                                       frame_pointer_zero(e))
                      for e in entries]
        self.dsg = DyckStateGraph()
        self.visits: list = []  # id -> worklist pops
        self.worklist: list = []
        self.pending: set = set()
        self.limit_reason: str | None = None
        self.store = init_store.copy()
        self.taint = init_taint.copy()
        self.recorder = _Recorder(program)
        self.readers: dict = {}
        self.current_item = None
        self.store.on_read = self.taint.on_read = self._on_read
        self.store.on_grow = self.taint.on_grow = self._on_grow

    def run(self) -> AnalysisResult:
        for root in self.roots:
            self._add_root(root)
        while self.worklist:
            if len(self.dsg.nodes) > self.cfg.max_states:
                self.limit_reason = "max-states"
                break
            if time.monotonic() > self.deadline:
                self.limit_reason = "max-seconds"
                break
            item = self.worklist.pop()
            self.pending.discard(item)
            self._process(item)
        return self._result()

    # dependency tracking -------------------------------------------------

    def _on_read(self, addr):
        if self.current_item is not None:
            readers = self.readers.get(addr)
            if readers is None:
                readers = self.readers[addr] = {}
            readers[self.current_item] = None

    def _on_grow(self, addr):
        for item in list(self.readers.get(addr, {})):
            self._enqueue(item)

    def _enqueue(self, item):
        if item not in self.pending:
            self.pending.add(item)
            self.worklist.append(item)

    def _stepped(self, item) -> list:
        """The edges of one worklist item's step; every address the step
        reads gets the item as a reader."""
        self.current_item = item
        try:
            return self._step(item)
        finally:
            self.current_item = None

    def _ensure_node(self, state: ControlState) -> int:
        """The id of ``state``, making it a node on first sight."""
        sid = self.dsg.add_node(state)
        if sid == len(self.visits):
            self.visits.append(0)
            self._new_node(sid, state)
        return sid

    def _result(self, tops: dict | None = None) -> AnalysisResult:
        """The run's result; a complete run's masks are made from the node
        table and the pushdown ``tops`` of stack-dependent nodes."""
        self.store.on_read = self.store.on_grow = None
        self.taint.on_read = self.taint.on_grow = None
        applications = self.recorder.applications()
        complete = self.limit_reason is None
        return AnalysisResult(
            mode=self.cfg.mode, dsg=self.dsg,
            final_store=self.store, final_taint=self.taint,
            visit_counts=dict(zip(self.dsg.states, self.visits)),
            complete=complete, limit_reason=self.limit_reason,
            applications=applications,
            masks=RootMasks(self, tops) if complete else None)


class _PushdownEngine(_BaseEngine):
    """Dyck-state-graph construction with epsilon summarization.

    The summary bookkeeping and the worklist items ``(id, top)`` are keyed
    by node id, so their hashing and equality are int operations; the graph
    and the result stay keyed by ``ControlState``. Each summary is added to
    the graph as a ``SUMMARY`` edge; ``pops_at`` indexes the pop edges by
    (source id, frame).

    Calling contexts are kept per entry node, as Reps, Horwitz and Sagiv
    (POPL 1995) key their path edges by procedure entry. An entry is a
    root or a push target; ``contexts`` holds, per entry, each frame pushed
    into it with the push sources that pushed it, and a root's empty stack,
    None, from itself. ``entries_of`` holds, per node, the entries with a
    balanced path to it (no-op edges and ε-summaries), carried along each
    new such edge; almost every node has one. Only a stack-dependent node
    reads its contexts: each entry lists these members, and hands each of
    its contexts to them (``tops``) when one joins or the context is new.
    So a node holds (f, p) in ``tops`` exactly when a push of f from p
    leads to it on a balanced path. A stack-dependent node is stepped once
    per frame it holds, and a pop of f from it makes a summary from each
    push source recorded with f.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.dependent: list = []  # id -> is the statement stack dependent
        self.contexts: dict = {}  # entry id -> {frame: {source id: None}}
        self.entries_of: dict = {}  # id -> {entry id: None}
        self.members: dict = {}  # entry id -> [stack-dependent member id]
        self.tops: dict = {}  # stack-dependent id -> as ``contexts``
        self.pops_at: dict = {}  # (source id, frame) -> [target id]

    def _add_root(self, root: ControlState):
        rid = self._ensure_node(root)
        self._add_push(None, rid, rid)

    def _result(self) -> AnalysisResult:
        return super()._result(self.tops)

    # graph construction ---------------------------------------------------

    def _new_node(self, sid: int, state: ControlState):
        dep = machine.is_stack_dependent(self.program, state.pos)
        self.dependent.append(dep)
        if not dep:
            self._enqueue((sid, _HYP_ANY))

    def _add_push(self, frame, src, entry):
        """Record a push of ``frame`` from ``src`` into ``entry`` (a root's
        empty stack, None, from itself): a new entry is carried to the
        nodes it reaches, a new context of a known one to its members."""
        contexts = self.contexts.setdefault(entry, {})
        work = [] if contexts else [(entry, (entry,))]
        sources = contexts.setdefault(frame, {})
        if src in sources:
            return
        sources[src] = None
        for sid in self.members.get(entry, ()):
            self._deliver(sid, frame, src, work)
        self._reach(work)

    def _add_summary(self, src, dst, work: list):
        """Add the summary src -> dst to the graph, if it is new; its work
        item gives dst every entry of src."""
        states = self.dsg.states
        edge = machine.edge_of(self.program, states[src], SUMMARY, None,
                               states[dst])
        if self.dsg.add_edge(src, edge, dst):
            work.append((dst, tuple(self.entries_of[src])))

    def _reach(self, work: list):
        """Give each node of ``work``'s ``(id, (entry id, ...))`` items
        those entries, and carry every new one on along no-op edges and
        summaries, the summaries its contexts make included."""
        dependent, known_of = self.dependent, self.entries_of
        out = self.dsg.out
        while work:
            sid, entries = work.pop()
            known = known_of.setdefault(sid, {})
            new = [e for e in entries if e not in known]
            if not new:
                continue
            for entry in new:
                known[entry] = None
                if dependent[sid]:
                    self.members.setdefault(entry, []).append(sid)
                    for frame, sources in self.contexts[entry].items():
                        for src in sources:
                            self._deliver(sid, frame, src, work)
            work.extend((b, new) for e, b in out[sid].items()
                        if e.kind == NOOP or e.kind == SUMMARY)

    def _deliver(self, sid, frame, src, work: list):
        """Put ``frame``, pushed by ``src``, on top of stack-dependent
        ``sid``: a frame new there is a worklist item, and each pop of it
        from ``sid`` makes a summary from ``src``."""
        frames = self.tops.setdefault(sid, {})
        sources = frames.get(frame)
        if sources is None:
            sources = frames[frame] = {}
            self._enqueue((sid, frame))
        elif src in sources:
            return
        sources[src] = None
        for tgt in self.pops_at.get((sid, frame), ()):
            self._add_summary(src, tgt, work)

    # transition dispatch ---------------------------------------------------

    def _process(self, item):
        sid = item[0]
        self.visits[sid] += 1
        for edge in self._stepped(item):
            dst = self._ensure_node(edge.dst)
            if not self.dsg.add_edge(sid, edge, dst):
                continue
            if edge.kind == PUSH:
                self._add_push(edge.frame, sid, dst)
                continue
            work = []
            if edge.kind == NOOP:
                work.append((dst, tuple(self.entries_of[sid])))
            else:
                self.pops_at.setdefault((sid, edge.frame), []).append(dst)
                for src in self.tops[sid][edge.frame]:
                    self._add_summary(src, dst, work)
            self._reach(work)

    def _step(self, item) -> list:
        sid, top = item
        state = self.dsg.states[sid]
        if top is _HYP_ANY:
            return machine.step_independent(
                self.program, state, self.store, self.taint, self.summaries,
                self.policy, self.recorder)
        return machine.step_dependent(self.program, state, top, self.store,
                                      self.taint, self.policy)


# ---------------------------------------------------------------------------
# Finite-state engine
# ---------------------------------------------------------------------------


@record
class HandlerRecord:
    frame: HandlerFrame
    region: tuple  # (lo, hi) indexes in frame.owner's body


class FiniteShared:
    """Flow facts of the finite engine: call edges and handler records.

    A finite-state analyzer keeps one application-wide flow graph. The
    app-wide fixpoint run of saturation builds these facts, as it builds the
    store pair; a run given the facts of an earlier run (``analyze``'s
    ``shared``) starts from them and adds to them.
    """

    def __init__(self):
        self.call_edges: dict = {}  # callee fp -> {(caller_state, FunFrame): None}
        self.handler_records: dict = {}  # HandlerRecord -> None

    def add_call(self, callee_fp: FramePointer, caller_state: ControlState,
                 frame: FunFrame) -> bool:
        entries = self.call_edges.setdefault(callee_fp, {})
        key = (caller_state, frame)
        if key in entries:
            return False
        entries[key] = None
        return True

    def add_handler(self, rec: HandlerRecord) -> bool:
        if rec in self.handler_records:
            return False
        self.handler_records[rec] = None
        return True


class _FiniteEngine(_BaseEngine):
    """Steps each return and pop-handler with the machine once per frame the
    flow facts allow on top of the stack (see ``_tops``): a return flows to
    every call edge recorded at its frame pointer. Worklist items, and their
    keys, are bare control states: no item needs a stack hypothesis, and no
    item's edges depend on the run's roots. A throw links to the handlers
    whose scope covers it (``_index``, grown with the flow facts), and their
    growth re-steps it only when its catching frames change."""

    def __init__(self, program, entries, init_store, init_taint, cfg,
                 summaries, shared: FiniteShared | None, deadline: float):
        super().__init__(program, entries, init_store, init_taint, cfg,
                         summaries, deadline)
        self.shared = shared if shared is not None else FiniteShared()
        self.entry_fps = {root.fp for root in self.roots}
        self._return_deps: dict = {}  # fp -> {state: None}
        self._callees: dict = {}  # method -> {(call index, callee): None}
        # (frame, handler's record, region lo, region hi, methods reached by
        # calls in the region), frames in sort order, per (frame, region)
        self._index: list = []
        self._throws: dict = {}  # throw state -> frames catching at its step
        for callee_fp, calls in self.shared.call_edges.items():
            for caller_state, _frame in calls:
                self._add_call(caller_state.pos, callee_fp.method)
        for rec in self.shared.handler_records:
            self._add_scope(rec.frame, rec.region)

    def _new_node(self, _sid: int, state: ControlState):
        self._enqueue(state)

    _add_root = _BaseEngine._ensure_node

    def _process(self, state: ControlState):
        sid = self.dsg.nodes[state]
        self.visits[sid] += 1
        for edge in self._stepped(state):
            dst = self._ensure_node(edge.dst)
            if self.dsg.add_edge(sid, edge, dst) and edge.kind == PUSH:
                self._record_push(state, edge)

    def _step(self, state: ControlState) -> list:
        code = self.program.code[state.pos]
        if isinstance(code.stmt, Throw):
            return self._step_throw(state, code)
        if isinstance(code.stmt, (Return, PopHandler)):
            return [edge for top in self._tops(state, code)
                    for edge in machine.step_dependent(
                        self.program, state, top, self.store, self.taint,
                        self.policy)]
        return machine.step_independent(
            self.program, state, self.store, self.taint, self.summaries,
            self.policy, self.recorder)

    def _tops(self, state: ControlState, code) -> list:
        """The frames that may top the stack at a return or pop-handler,
        None for the empty stack. At a pop-handler, the handler its matching
        push-handler installed. At a return, the empty stack in a root's
        frame, then every call frame recorded at the return's frame pointer,
        by caller state."""
        if isinstance(code.stmt, PopHandler):
            return [code.frame]
        self._return_deps.setdefault(state.fp, {})[state] = None
        tops = [None] if state.fp in self.entry_fps else []
        calls = sorted(self.shared.call_edges.get(state.fp, {}),
                       key=lambda e: (e[0].sort_key(), e[1].sort_key()))
        return tops + [frame for _caller_state, frame in calls]

    # flow facts -----------------------------------------------------------

    def _record_push(self, state: ControlState, edge: Edge):
        """Add a call edge or handler record to ``shared``."""
        if isinstance(edge.frame, FunFrame):
            fp = edge.dst.fp
            if self.shared.add_call(fp, state, edge.frame):
                self._add_call(state.pos, fp.method)
                self._on_shared_growth([*self._return_deps.get(fp, ())])
            return
        region = self.program.handler_spans[state.pos.method][state.pos.index]
        if self.shared.add_handler(HandlerRecord(edge.frame, region)):
            self._add_scope(edge.frame, region)
            self._on_shared_growth([])

    def _on_shared_growth(self, states: list):
        """Re-step ``states`` and each throw whose catching frames changed."""
        states += [s for s, frames in self._throws.items()
                   if self._catching(s) != frames]
        for state in sorted(states, key=ControlState.sort_key):
            self._enqueue(state)

    def _add_call(self, pos: StmtPos, callee: MethodRef):
        """Record a call; the index entries whose scope holds it reach on."""
        self._callees.setdefault(pos.method, {})[(pos.index, callee)] = None
        for frame, _handler, lo, hi, reachable in self._index:
            if pos.method in reachable or (pos.method == frame.owner
                                           and lo < pos.index < hi):
                self._reach([callee], reachable)

    def _add_scope(self, frame: HandlerFrame, region: tuple):
        """Index a handler record, next to its frame's other entries."""
        lo, hi = region
        reachable: set = set()
        self._reach([m for idx, m in self._callees.get(frame.owner, ())
                     if lo < idx < hi], reachable)
        handler = self.program.labels[(frame.owner, frame.label)]
        bisect.insort(self._index, (frame, handler, lo, hi, reachable),
                      key=lambda e: e[0].sort_key())

    def _reach(self, frontier: list, reachable: set):
        """Add to ``reachable`` what recorded calls reach from ``frontier``."""
        while frontier:
            m = frontier.pop()
            if m not in reachable:
                reachable.add(m)
                frontier.extend(c for _idx, c in self._callees.get(m, ()))

    def _catching(self, state: ControlState) -> set:
        """The frames of the index entries whose scope covers ``state``."""
        method, idx = state.pos.method, state.pos.index
        return {frame for frame, _handler, lo, hi, reachable in self._index
                if method in reachable
                or (method == frame.owner and lo < idx < hi)}

    def _step_throw(self, state: ControlState, code) -> list:
        catching = self._throws[state] = self._catching(state)
        program = self.program
        [(values, taint)] = machine.evaluators(program, code)
        thrown = [v for v in values(state.fp, self.store)
                  if isinstance(v, machine.ObjectValue)]
        if not thrown:
            return []
        taints = taint(state.fp, self.taint)
        # without a stack the unwind may always escape
        exn = machine.reg_addr(program, state.fp, machine.EXN_REG)
        self.store.join(exn, frozenset(thrown))
        self.taint.join(exn, taints)
        edges = []
        for frame, handler, *_scope in self._index:
            if frame not in catching or (edges and edges[-1].frame == frame):
                continue  # a frame's entries are adjacent; one edge each
            if any(program.is_subclass(v.class_name, frame.class_name)
                   for v in thrown):
                edges.append(machine.edge_of(
                    program, state, POP, frame,
                    machine.state_at(handler, state.fp)))
        return edges


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def analyze(program: Program, entries: tuple, init_store: Store,
            init_taint: TaintStore, cfg: AnalysisConfig,
            summaries: SummaryTable | None = None,
            shared: FiniteShared | None = None,
            deadline: float | None = None) -> AnalysisResult:
    """Run the engine ``cfg.mode`` names from ``entries``, a tuple of
    methods: one run whose roots are every method's initial state, each
    with an empty stack, over a copy of the store pair given.

    The run stops at ``cfg.max_states`` states or at ``deadline``, a
    reading of this module's ``time.monotonic`` (``cfg.deadline()``, made
    now, when None). ``shared`` carries the finite engine's flow facts
    between runs; the pushdown engine needs none.
    """
    summaries = summaries or SummaryTable([])
    deadline = cfg.deadline() if deadline is None else deadline
    if cfg.mode == FINITE:
        engine = _FiniteEngine(program, entries, init_store, init_taint, cfg,
                               summaries, shared, deadline)
    else:
        engine = _PushdownEngine(program, entries, init_store, init_taint,
                                 cfg, summaries, deadline)
    return engine.run()


class RootMasks:
    """Which of a run's roots reach each node of its graph: one int per
    node, bit i set for the run's i-th distinct root (tabulation with
    bit-vector facts: Reps, Horwitz and Sagiv, POPL 1995), over the
    graph's ``out``: under pushdown every edge but pops (no-op and push
    edges and ε-summaries), under finite every edge. A pushdown
    (stack-dependent node, frame) of ``tops`` gets the OR of the masks of
    the push sources that put the frame there, or for the empty stack,
    None, the bits of the roots with a balanced path to the node. Made
    from a complete run's graph when the run ends.

    A root's part of the graph is what holds its bit: the nodes whose mask
    holds it and, of their pop edges, those whose frame's mask at the
    popping node holds it. It is what a run from that root alone builds
    over the run's store pair, and the parts of all the roots together are
    the whole graph."""

    def __init__(self, engine: _BaseEngine, tops: dict | None):
        dsg = engine.dsg
        self.states, self.ids = dsg.states, dsg.nodes
        ids, pushdown = self.ids, engine.cfg.mode == PUSHDOWN
        adj = [[b for e, b in out.items() if not pushdown or e.kind != POP]
               for out in dsg.out]
        self.bits = bits = {}  # root -> bit
        for root in engine.roots:
            bits.setdefault(root, len(bits))
        self.roots = {entry: (root, bits[root])  # entry -> (root, bit)
                      for entry, root in zip(engine.entries, engine.roots)}
        node = self.node = [0] * len(adj)  # id -> mask
        for root, bit in bits.items():
            node[ids[root]] = 1 << bit
        again = True  # ids are in discovery order: a sweep carries most bits
        while again:
            again = False
            for a, m in enumerate(node):
                for b in adj[a] if m else ():
                    if node[b] | m != node[b]:
                        node[b] |= m
                        again = again or b < a  # a swept node grew
        rooted = {ids[root]: 1 << bit for root, bit in bits.items()}.get
        self.frames = {t: {f: reduce(or_, map(  # id -> {frame: mask}
            rooted if f is None else node.__getitem__, srcs), 0)
            for f, srcs in fs.items()} for t, fs in (tops or {}).items()}

    def mask(self, state: ControlState) -> int:
        """The bits of the roots that reach ``state``; 0 if it is no node."""
        sid = self.ids.get(state)
        return 0 if sid is None else self.node[sid]

    def weigh(self, entries) -> callable:
        """A function of a mask: how many of ``entries`` (an entry may be
        listed more than once) have their root's bit in it."""
        counts: dict = {}
        for entry in entries:
            bit = self.roots[entry][1]
            counts[bit] = counts.get(bit, 0) + 1
        declared = sum(1 << bit for bit in counts)
        extra = [(bit, n - 1) for bit, n in counts.items() if n > 1]
        if not extra:
            return lambda mask: (mask & declared).bit_count()

        def weight(mask: int) -> int:
            mask &= declared
            return mask.bit_count() + sum(n for bit, n in extra
                                          if mask >> bit & 1)
        return weight

    def visits(self, entries) -> list:
        """(node, visits) for each node in the part of a root of
        ``entries``: its visits summed over those parts (an entry counted
        once per listing). In one part a stack-dependent node counts the
        frames whose mask holds the part's bit, and any other node 1. The
        frame masks of a stack-dependent node together are its mask: the
        last push on a root's path to it put a frame there, or the path
        is balanced and the root put the empty stack there."""
        weight, frames, out = self.weigh(entries), self.frames, []
        for sid, mask in enumerate(self.node):
            held = frames.get(sid)
            count = (weight(mask) if held is None
                     else sum(map(weight, held.values())))
            if count:  # the node is in some entry's part
                out.append((self.states[sid], count))
        return out

    def out_edges(self, dsg: DyckStateGraph, bit: int):
        """``dsg.out_edges``, of this run's graph, on the part of it that
        the root of ``bit`` reaches: a pop edge is kept when its frame's
        mask at the popping node holds ``bit``."""
        out_edges, ids, frames = dsg.out_edges, self.ids, self.frames
        b = 1 << bit

        def part_out_edges(s: ControlState) -> list:
            edges, held = out_edges(s), frames.get(ids[s])
            if held is None:
                return edges
            return [e for e in edges
                    if e.kind != POP or held.get(e.frame, 0) & b]
        return part_out_edges


# ---------------------------------------------------------------------------
# Path reconstruction
# ---------------------------------------------------------------------------


def reconstruct_path_steps(result: AnalysisResult, frm: ControlState,
                           to: ControlState, trees: dict,
                           bit: int) -> list | None:
    """The edges of a shortest witness path from ``frm`` to ``to`` in the
    part of a complete run's graph that holds root ``bit``
    (``RootMasks``); None when that part holds no such path.

    Pushdown results respect stack balance: a path is pops of the
    pre-existing stack (with balanced segments riding epsilon summaries,
    the graph's ``SUMMARY`` edges) followed by pushes; finite results use
    plain graph search, which is exactly where their spurious flows become
    visible. Every edge is one that ``result.dsg.out_edges`` returned.

    The path is read from one BFS tree rooted at ``frm``, kept in
    ``trees``: a caller asking for many paths of one result passes the
    same dict to every call, which holds one tree per (bit, source) for as
    long as the caller holds it.
    """
    if not (result.masks.mask(frm) & result.masks.mask(to)) >> bit & 1:
        return None
    if frm == to:
        return []
    tree = trees.get((bit, frm))
    if tree is None:
        tree = trees[(bit, frm)] = _Tree(result, frm, bit)
    return tree.steps_to(to)


_DOWN, _UP = 0, 1  # a balanced key's phase: may it still pop


class _Tree:
    """The BFS tree of one (part of a graph, source state), grown only as
    far as the paths asked of it need: the first path costs what a search
    for it alone costs, and later paths reuse that work instead of
    searching again. Each node's out-edges are taken in sorted order.

    A plain tree's keys are nodes. A balanced tree's are (node, phase):
    phase ``_DOWN`` may pop the pre-existing stack; a push moves to
    ``_UP``, where pops are only crossed by epsilon summaries. ``parent``
    maps each key to its (previous key, edge) as first discovered, the
    source's to None; ``first`` maps each node to the link of its first
    key, which in a plain tree is ``parent`` itself.
    """

    def __init__(self, result: AnalysisResult, frm: ControlState, bit: int):
        dsg = result.dsg
        self.out_edges = result.masks.out_edges(dsg, bit)
        if result.mode == FINITE:
            self.parent = self.first = {frm: None}
            self.queue = deque([frm])
            self.expand = self._expand_plain
        else:
            self.parent, self.first = {(frm, _DOWN): None}, {frm: None}
            self.queue = deque([(frm, _DOWN)])
            self.expand = self._expand_balanced

    def steps_to(self, to: ControlState) -> list | None:
        """The edges of the tree's path to ``to``, grown until ``to`` is
        discovered; None when the tree holds it nowhere."""
        first, queue = self.first, self.queue
        while to not in first:
            if not queue:
                return None
            self.expand(queue.popleft())
        edges, link = [], first[to]
        while link is not None:
            key, edge = link
            edges.append(edge)
            link = self.parent[key]
        edges.reverse()
        return edges

    def _expand_plain(self, node: ControlState):
        parent, queue = self.parent, self.queue
        for e in self.out_edges(node):
            if e.dst not in parent:
                parent[e.dst] = node, e
                queue.append(e.dst)

    def _expand_balanced(self, key: tuple):
        node, phase = key
        moves = [((e.dst, _UP if e.kind == PUSH else phase), e)
                 for e in self.out_edges(node)
                 if e.kind != POP or phase == _DOWN]
        parent, first, queue = self.parent, self.first, self.queue
        for nkey, edge in moves:
            if nkey not in parent:
                link = parent[nkey] = key, edge
                first.setdefault(nkey[0], link)
                queue.append(nkey)
