"""Reachability engines over the abstract machine.

``analyze`` starts every engine run; ``AnalysisConfig.mode`` picks the
engine. The two engines share the machine's transition rules and differ only
in how the continuation stack is treated:

* ``pushdown`` keeps the stack exact: it builds a Dyck state graph
  whose edges carry stack actions, maintaining epsilon summaries so a pop is
  propagated to exactly the push sites with a balanced path to it.
* ``finite`` finitizes the stack in the traditional way: returns flow
  to every continuation merged at the same context key (the callee frame
  pointer), and throws link to every recorded handler whose guarded region
  can reach the throwing method, so it computes a superset of the pushdown
  result.

Both run a worklist to a simultaneous fixpoint of the node set, edge set,
summaries, and one global widened store pair. Worklist order is LIFO with
deterministic tie-breaking, so results are identical across runs. A run may
start from several entry methods at once, each initial state a root with an
empty stack; entry-point saturation makes one such app-wide run, then one
reporting run per entry point that replays it: it runs the same worklist
and closure, but reads each item's effects from the app-wide run's table
instead of stepping the machine.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from . import machine
from .ir import (
    MethodRef,
    PopHandler,
    Program,
    Return,
    StmtPos,
    Throw,
    key_type,
)
from .machine import (
    AllocPolicy,
    FramePointer,
    FunFrame,
    HandlerFrame,
    NOOP,
    POP,
    PUSH,
    RegAddr,
    Store,
    TERMINAL_RETURN,
    TERMINAL_UNCAUGHT,
    frame_pointer_zero,
)
from .taint import SummaryTable, TaintStore, TriggerContext

PUSHDOWN = "pushdown"
FINITE = "finite"


@key_type
class ControlState:
    pos: StmtPos
    fp: FramePointer

    def sort_key(self):
        return (self.pos.sort_key(), self.fp.sort_key())

    def describe(self) -> str:
        move = "+move" if self.pos.at_move else ""
        return (f"{self.pos.method.sig()}@{self.pos.index}{move} "
                f"{self.fp.canonical()}")


@key_type
class Edge:
    src: ControlState
    kind: str  # noop | push | pop
    frame: object  # FunFrame | HandlerFrame | None
    dst: ControlState

    def sort_key(self):
        fkey = self.frame.sort_key() if self.frame is not None else ()
        return (self.src.sort_key(), self.kind, fkey, self.dst.sort_key())


class DyckStateGraph:
    """Reachable control states with stack-action edges and summaries.

    ``out_edges`` and ``summaries_from`` give a node's adjacency in sort
    order, sorted on first use and kept until the node gains an edge or a
    summary, so every witness tree over one result shares one sort.
    """

    def __init__(self):
        self.nodes: dict = {}
        self.edges: dict = {}
        self.epsilon_summaries: dict = {}
        self._out: dict = {}
        self._sum_from: dict = {}
        self._sorted_out: dict = {}
        self._sorted_sum_from: dict = {}

    def add_node(self, s: ControlState) -> bool:
        if s in self.nodes:
            return False
        self.nodes[s] = None
        return True

    def add_edge(self, e: Edge) -> bool:
        if e in self.edges:
            return False
        self.edges[e] = None
        self._out.setdefault(e.src, []).append(e)
        self._sorted_out.pop(e.src, None)
        return True

    def add_summary(self, a: ControlState, b: ControlState) -> bool:
        if (a, b) in self.epsilon_summaries:
            return False
        self.epsilon_summaries[(a, b)] = None
        self._sum_from.setdefault(a, []).append(b)
        self._sorted_sum_from.pop(a, None)
        return True

    def out_edges(self, s: ControlState) -> list:
        edges = self._sorted_out.get(s)
        if edges is None:
            edges = self._sorted_out[s] = sorted(self._out.get(s, ()),
                                                 key=Edge.sort_key)
        return edges

    def summaries_from(self, s: ControlState) -> list:
        dsts = self._sorted_sum_from.get(s)
        if dsts is None:
            dsts = self._sorted_sum_from[s] = sorted(
                self._sum_from.get(s, ()), key=ControlState.sort_key)
        return dsts


@dataclass(frozen=True)
class SummaryApplication:
    """One API summary applied at a control state (merged over revisits)."""

    state: ControlState
    line: int
    summary_key: str
    role: str
    sink_kind: str | None
    sink_hits: frozenset  # of (TaintVal, kind)
    permissions: tuple
    source_categories: tuple

    def sort_key(self):
        return (self.state.sort_key(), self.summary_key)


@dataclass(frozen=True)
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
        if self.max_states <= 0 or self.max_seconds <= 0:
            raise ValueError("budgets must be positive")

    def policy(self) -> AllocPolicy:
        return AllocPolicy(self.k, self.heap_context)


@dataclass
class AnalysisResult:
    mode: str
    entry: MethodRef
    initial_state: ControlState
    dsg: DyckStateGraph
    final_store: Store
    final_taint: TaintStore
    visit_counts: dict
    terminals: dict  # ControlState -> tuple of terminal kinds
    complete: bool
    limit_reason: str | None
    applications: list  # sorted by SummaryApplication.sort_key
    config: AnalysisConfig
    trigger: TriggerContext
    # worklist key -> (terminal kinds, edges) of the item's last step; None
    # for a run that replays another
    effects: dict | None = None

    def node_set(self) -> frozenset:
        return frozenset(self.dsg.nodes)

    def source_applications(self) -> list:
        return [a for a in self.applications if a.source_categories]

    def sink_applications(self) -> list:
        return [a for a in self.applications if a.sink_hits]


class Budget:
    """Resource limits shared by every engine run of one analysis.

    One deadline, fixed when the budget is made, and one running count of
    the states that finished runs built; a run stops once that count plus
    its own states passes ``max_states`` or the deadline passes.
    """

    def __init__(self, cfg: AnalysisConfig):
        self.deadline = time.monotonic() + cfg.max_seconds
        self.max_states = cfg.max_states
        self.states_used = 0


class _Recorder:
    def __init__(self, program: Program):
        self.program = program
        self._apps: dict = {}

    def summary_applied(self, pos, fp, rec, sink_hits, arg_taint):
        state = ControlState(pos, fp)
        key = (state, rec.key())
        hits = frozenset(sink_hits)
        old = self._apps.get(key)
        if old is not None:
            hits |= old.sink_hits
        self._apps[key] = SummaryApplication(
            state=state,
            line=self.program.line_of(pos),
            summary_key=rec.key(),
            role=rec.role,
            sink_kind=rec.sink_kind,
            sink_hits=hits,
            permissions=rec.permissions,
            source_categories=rec.source_categories if rec.role == "source"
            else (),
        )

    def applications(self) -> list:
        return sorted(self._apps.values(), key=SummaryApplication.sort_key)


_HYP_ANY = "<any>"
_HYP_EMPTY = "<empty>"


class _BaseEngine:
    """One run from the initial states of ``entries``, its roots.

    A plain run steps each worklist item under the store pair it grows and
    keeps the item's last effects (terminal kinds and edges) under its key.
    A run that replays such a run (``replay``, its result) shares its final
    pair, grows nothing and steps nothing: it reads each item's effects from
    that table. Readers tracking re-steps an item whenever an address it read
    grows, so each item's last step is its step under the final pair.
    """

    def __init__(self, program: Program, entries: tuple, init_store: Store,
                 init_taint: TaintStore, cfg: AnalysisConfig,
                 summaries: SummaryTable, budget: Budget | None,
                 replay: AnalysisResult | None):
        for entry in entries:
            if entry not in program.methods:
                raise machine.ResolveError(f"unknown entry {entry.sig()}")
        self.program = program
        self.entry = entries[0]
        self.cfg = cfg
        self.policy = cfg.policy()
        self.summaries = summaries
        self.budget = budget if budget is not None else Budget(cfg)
        self.replay = replay
        self.roots = [ControlState(StmtPos(e, 0), frame_pointer_zero(e))
                      for e in entries]
        self.init_state = self.roots[0]
        self.dsg = DyckStateGraph()
        self.visit_counts: dict = {}
        self.terminals: dict = {}
        self.worklist: list = []
        self.pending: set = set()
        self.complete = True
        self.limit_reason: str | None = None
        if replay is not None:
            self.store, self.taint = replay.final_store, replay.final_taint
            self.effects = None
            return
        self.store = init_store.copy()
        self.taint = init_taint.copy()
        self.effects = {}
        self.recorder = _Recorder(program)
        self.readers: dict = {}
        self.current_item = None
        self.store.on_read = self.taint.on_read = self._on_read
        self.store.on_grow = self.taint.on_grow = self._on_grow

    def run(self) -> AnalysisResult:
        for root in self.roots:
            self._add_root(root)
        while self.worklist:
            if self._budget_exceeded():
                break
            item = self.worklist.pop()
            self.pending.discard(item)
            self._process(item)
        return self._result()

    # dependency tracking -------------------------------------------------

    def _on_read(self, addr):
        if self.current_item is not None:
            self.readers.setdefault(addr, {})[self.current_item] = None

    def _on_grow(self, addr):
        for item in list(self.readers.get(addr, {})):
            self._enqueue(item)

    def _enqueue(self, item):
        if item not in self.pending:
            self.pending.add(item)
            self.worklist.append(item)

    def _budget_exceeded(self) -> bool:
        budget = self.budget
        if budget.states_used + len(self.dsg.nodes) > budget.max_states:
            self.complete = False
            self.limit_reason = "max-states"
            return True
        if time.monotonic() > budget.deadline:
            self.complete = False
            self.limit_reason = "max-seconds"
            return True
        return False

    def _effects(self, item, key) -> tuple:
        """(terminal kinds, edges) of one worklist item: stepped and kept
        under ``key``, or read from the replayed run's table."""
        if self.replay is not None:
            effects = self.replay.effects.get(key)
            if effects is None:
                raise RuntimeError(
                    f"the run from {self.entry.sig()} reached "
                    f"{_describe_key(key)}, which the run it replays never "
                    f"stepped")
            return effects
        self.current_item = item
        try:
            effects = self.effects[key] = self._step(item)
        finally:
            self.current_item = None
        return effects

    def _edges(self, state: ControlState, steps) -> list:
        return [Edge(state, e.kind, e.frame, ControlState(e.pos, e.fp))
                for e in steps]

    def _terminal(self, state: ControlState, kind: str):
        kinds = set(self.terminals.get(state, ()))
        kinds.add(kind)
        self.terminals[state] = tuple(sorted(kinds))

    def _applications(self) -> list:
        if self.replay is None:
            return self.recorder.applications()
        # an application is recorded where a step applies a summary: keep
        # the replayed run's at the states this run stepped
        visits = self.visit_counts
        return [a for a in self.replay.applications if visits.get(a.state)]

    def _result(self) -> AnalysisResult:
        self.store.on_read = self.store.on_grow = None
        self.taint.on_read = self.taint.on_grow = None
        self.budget.states_used += len(self.dsg.nodes)
        return AnalysisResult(
            mode=self.cfg.mode,
            entry=self.entry,
            initial_state=self.init_state,
            dsg=self.dsg,
            final_store=self.store,
            final_taint=self.taint,
            visit_counts=dict(self.visit_counts),
            terminals=dict(self.terminals),
            complete=self.complete,
            limit_reason=self.limit_reason,
            applications=self._applications(),
            config=self.cfg,
            trigger=TriggerContext("<direct>", self.entry.sig()),
            effects=self.effects,
        )


def _describe_key(key) -> str:
    """A worklist key for messages: a control state, or a pushdown
    (control state, stack hypothesis) pair."""
    if isinstance(key, ControlState):
        return key.describe()
    state, hyp = key
    top = hyp if isinstance(hyp, str) else hyp.canonical()
    return f"{state.describe()} under top {top}"


class _PushdownEngine(_BaseEngine):
    """Dyck-state-graph construction with epsilon summarization.

    Each control state gets a dense int id, in discovery order, when it
    first becomes a node. The summary bookkeeping and the worklist items
    ``(id, hyp)`` are keyed by id, so their hashing and equality are int
    operations; the graph and the result stay keyed by ``ControlState``.
    Every root starts with an empty stack, so ``eb`` holds the ids with a
    balanced path from any root.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.ids: dict = {}  # ControlState -> id
        self.states: list = []  # id -> ControlState
        self.visits: list = []  # id -> worklist pops
        self.dependent: list = []  # id -> is the statement stack dependent
        self.root_ids: set = set()
        self.rfwd: dict = {}  # id -> {id with a balanced path from it: None}
        self.rbwd: dict = {}  # id -> {id with a balanced path to it: None}
        self.tops: dict = {}  # id -> {frame that may top its stack: None}
        self.eb: set = set()  # ids with a balanced path from a root
        self.push_into: dict = {}  # id -> [(push source id, frame)]
        self.pushes_by_frame: dict = {}  # frame -> [(source id, target id)]
        self.pops_at: dict = {}  # (source id, frame) -> {target id: None}

    def _add_root(self, root: ControlState):
        rid = self._ensure_node(root)
        self.root_ids.add(rid)
        self.eb.add(rid)
        if self.dependent[rid]:
            self._enqueue((rid, _HYP_EMPTY))

    def _result(self) -> AnalysisResult:
        self.visit_counts = dict(zip(self.states, self.visits))
        return super()._result()

    # graph construction ---------------------------------------------------

    def _ensure_node(self, state: ControlState) -> int:
        """The id of ``state``, making it a node on first sight. A new node
        has no tops and is not in ``eb`` yet: both are only ever set on
        nodes."""
        sid = self.ids.get(state)
        if sid is not None:
            return sid
        sid = len(self.states)
        self.ids[state] = sid
        self.states.append(state)
        self.visits.append(0)
        self.dsg.add_node(state)
        dep = machine.is_stack_dependent(self.program, state.pos)
        self.dependent.append(dep)
        if not dep:
            self._enqueue((sid, _HYP_ANY))
        return sid

    def _add_noop(self, src, edge):
        dst = self._ensure_node(edge.dst)
        self.dsg.add_edge(edge)
        self._add_pair(src, dst)

    def _add_push(self, src, edge):
        dst = self._ensure_node(edge.dst)
        if not self.dsg.add_edge(edge):
            return
        frame = edge.frame
        self.push_into.setdefault(dst, []).append((src, frame))
        self.pushes_by_frame.setdefault(frame, []).append((src, dst))
        for y in [dst, *self.rfwd.get(dst, ())]:
            self._add_top(y, frame, src)

    def _add_pop(self, src, edge):
        dst = self._ensure_node(edge.dst)
        self.dsg.add_edge(edge)
        frame = edge.frame
        targets = self.pops_at.setdefault((src, frame), {})
        if dst in targets:
            return
        targets[dst] = None
        for psrc, psucc in self.pushes_by_frame.get(frame, ()):
            if psucc == src or src in self.rfwd.get(psucc, ()):
                self._add_summary(psrc, dst)

    def _add_top(self, sid, frame, push_src):
        known = self.tops.setdefault(sid, {})
        if frame not in known:
            known[frame] = None
            if self.dependent[sid]:
                self._enqueue((sid, frame))
        for tgt in self.pops_at.get((sid, frame), ()):
            self._add_summary(push_src, tgt)

    def _add_summary(self, a, b):
        if self.dsg.add_summary(self.states[a], self.states[b]):
            self._add_pair(a, b)

    def _add_pair(self, a, b):
        """Extend the balanced-reachability relation and its closure."""
        rfwd, rbwd = self.rfwd, self.rbwd
        if a == b or b in rfwd.get(a, ()):
            return
        xs = [a, *rbwd.get(a, ())]
        ys = [b, *rfwd.get(b, ())]
        for x in xs:
            fwd = rfwd.setdefault(x, {})
            for y in ys:
                if x == y or y in fwd:
                    continue
                fwd[y] = None
                rbwd.setdefault(y, {})[x] = None
                self._on_new_pair(x, y)

    def _on_new_pair(self, x, y):
        for psrc, frame in self.push_into.get(x, ()):
            self._add_top(y, frame, psrc)
        if x in self.root_ids and y not in self.eb:
            self.eb.add(y)
            if self.dependent[y]:
                self._enqueue((y, _HYP_EMPTY))

    # transition dispatch ---------------------------------------------------

    def _process(self, item):
        sid, hyp = item
        state = self.states[sid]
        self.visits[sid] += 1
        terminals, edges = self._effects(item, (state, hyp))
        for kind in terminals:
            self._terminal(state, kind)
        for edge in edges:
            if edge.kind == NOOP:
                self._add_noop(sid, edge)
            elif edge.kind == PUSH:
                self._add_push(sid, edge)
            else:
                self._add_pop(sid, edge)

    def _step(self, item) -> tuple:
        sid, hyp = item
        state = self.states[sid]
        if hyp is _HYP_ANY:
            steps = machine.step_independent(
                self.program, state.pos, state.fp, self.store, self.taint,
                self.summaries, self.policy, self.recorder)
            assert steps is not None
            return (), self._edges(state, steps)
        top = None if hyp is _HYP_EMPTY else hyp
        steps, terminals = machine.step_dependent(
            self.program, state.pos, state.fp, top, self.store, self.taint,
            self.policy)
        return terminals, self._edges(state, steps)


# ---------------------------------------------------------------------------
# Finite-state engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HandlerRecord:
    frame: HandlerFrame
    push_state: ControlState
    region: tuple  # (lo, hi) indexes in frame.owner's body

    def sort_key(self):
        return (self.frame.sort_key(), self.push_state.sort_key())


class FiniteShared:
    """Flow facts of the finite engine: call edges and handler records.

    A finite-state analyzer keeps one application-wide flow graph. The
    app-wide fixpoint run of saturation builds these facts, as it builds the
    store pair; the reporting runs read them frozen.
    """

    def __init__(self):
        self.call_edges: dict = {}  # callee fp -> {(caller_state, FunFrame): None}
        self.handler_records: dict = {}  # HandlerRecord -> None
        self.version = 0

    def add_call(self, callee_fp: FramePointer, caller_state: ControlState,
                 frame: FunFrame) -> bool:
        entries = self.call_edges.setdefault(callee_fp, {})
        key = (caller_state, frame)
        if key in entries:
            return False
        entries[key] = None
        self.version += 1
        return True

    def add_handler(self, rec: HandlerRecord) -> bool:
        if rec in self.handler_records:
            return False
        self.handler_records[rec] = None
        self.version += 1
        return True


class _FiniteEngine(_BaseEngine):
    """Returns flow to every call edge recorded at the callee frame pointer;
    a return in a root's frame is also a terminal one. Worklist items, and
    their keys, are bare control states: no step needs a stack hypothesis,
    and none depends on the run's roots."""

    def __init__(self, program, entries, init_store, init_taint, cfg,
                 summaries, shared: FiniteShared | None, budget: Budget | None,
                 replay: AnalysisResult | None):
        super().__init__(program, entries, init_store, init_taint, cfg,
                         summaries, budget, replay)
        self.shared = shared if shared is not None else FiniteShared()
        self.entry_fps = {root.fp for root in self.roots}
        self._return_deps: dict = {}  # fp -> {state: None}
        self._throw_states: dict = {}
        self._index_version = -1
        self._index: list = []

    def _add_root(self, root: ControlState):
        self._ensure_node(root)

    def _ensure_node(self, state: ControlState):
        if not self.dsg.add_node(state):
            return
        self.visit_counts.setdefault(state, 0)
        self._enqueue(state)

    def _handler_index(self) -> list:
        """Every handler record in sorted order, as ``(frame, handler
        position, region lo, region hi, methods reachable through calls
        inside the region)``; rebuilt only when ``shared`` has grown."""
        if self._index_version == self.shared.version:
            return self._index
        callees: dict = {}  # method -> {(call index, callee method): None}
        for callee_fp, entries in self.shared.call_edges.items():
            for caller_state, _frame in entries:
                callees.setdefault(caller_state.pos.method, {})[
                    (caller_state.pos.index, callee_fp.method)] = None
        index = []
        for rec in sorted(self.shared.handler_records,
                          key=HandlerRecord.sort_key):
            frame = rec.frame
            lo, hi = rec.region
            frontier = [m for idx, m in callees.get(frame.owner, ())
                        if lo < idx < hi]
            reachable: set = set()
            while frontier:
                m = frontier.pop()
                if m not in reachable:
                    reachable.add(m)
                    frontier.extend(c for _idx, c in callees.get(m, ()))
            hpos = self.program.pos_of_label(frame.owner, frame.label)
            index.append((frame, hpos, lo, hi, reachable))
        self._index = index
        self._index_version = self.shared.version
        return index

    def _process(self, state: ControlState):
        self.visit_counts[state] = self.visit_counts.get(state, 0) + 1
        terminals, edges = self._effects(state, state)
        for kind in terminals:
            # a return's value reaches the caller only in a root's frame
            if kind != TERMINAL_RETURN or state.fp in self.entry_fps:
                self._terminal(state, kind)
        for edge in edges:
            self._ensure_node(edge.dst)
            self.dsg.add_edge(edge)
            if edge.kind == PUSH and self.replay is None:
                self._record_push(state, edge)

    def _step(self, state: ControlState) -> tuple:
        st = self.program.stmt_at(state.pos)
        if isinstance(st, Return):
            return self._step_return(state, st)
        if isinstance(st, Throw):
            return self._step_throw(state, st)
        if isinstance(st, PopHandler):
            return (), [self._pop_handler_edge(state)]
        steps = machine.step_independent(
            self.program, state.pos, state.fp, self.store, self.taint,
            self.summaries, self.policy, self.recorder)
        assert steps is not None
        return (), self._edges(state, steps)

    def _record_push(self, state: ControlState, edge: Edge):
        """Add a call edge or handler record to ``shared``; a reporting
        run reads them frozen."""
        if isinstance(edge.frame, FunFrame):
            if self.shared.add_call(edge.dst.fp, state, edge.frame):
                self._on_shared_growth(callee_fp=edge.dst.fp)
            return
        region = self.program.handler_spans[state.pos.method][state.pos.index]
        if self.shared.add_handler(HandlerRecord(edge.frame, state, region)):
            self._on_shared_growth()

    def _on_shared_growth(self, callee_fp: FramePointer | None = None):
        # new call edges affect matching returns and every throw's scope;
        # new handler records affect every throw
        states = []
        if callee_fp is not None:
            states.extend(self._return_deps.get(callee_fp, {}))
        states.extend(self._throw_states)
        for state in sorted(states, key=ControlState.sort_key):
            self._enqueue(state)

    def _step_return(self, state: ControlState, st: Return) -> tuple:
        self._return_deps.setdefault(state.fp, {})[state] = None
        program = self.program
        vals = machine.eval_atomic(program, st.exp, state.fp, self.store)
        if not vals:
            return (), []
        taints = machine.eval_atomic_taint(st.exp, state.fp, self.taint)
        if state.fp in self.entry_fps:
            self.store.join(RegAddr(state.fp, machine.RET_REG), vals)
            self.taint.join(RegAddr(state.fp, machine.RET_REG), taints)
        entries = sorted(self.shared.call_edges.get(state.fp, {}),
                         key=lambda e: (e[0].sort_key(), e[1].sort_key()))
        edges = []
        for _caller_state, frame in entries:
            self.store.join(RegAddr(frame.fp, machine.RET_REG), vals)
            self.taint.join(RegAddr(frame.fp, machine.RET_REG), taints)
            edges.append(Edge(state, POP, frame,
                              ControlState(frame.ret_pos, frame.fp)))
        return (TERMINAL_RETURN,), edges

    def _step_throw(self, state: ControlState, st: Throw) -> tuple:
        self._throw_states[state] = None
        program = self.program
        vals = machine.eval_atomic(program, st.exp, state.fp, self.store)
        thrown = [v for v in vals if isinstance(v, machine.ObjectValue)]
        if not thrown:
            return (), []
        taints = machine.eval_atomic_taint(st.exp, state.fp, self.taint)
        # without a stack the unwind may always escape
        self.store.join(RegAddr(state.fp, machine.EXN_REG), frozenset(thrown))
        self.taint.join(RegAddr(state.fp, machine.EXN_REG), taints)
        method, idx = state.pos.method, state.pos.index
        edges = []
        for frame, hpos, lo, hi, reachable in self._handler_index():
            catchable = [v for v in thrown
                         if program.is_subclass(v.class_name, frame.class_name)]
            if catchable and (method in reachable
                              or (method == frame.owner and lo < idx < hi)):
                edges.append(Edge(state, POP, frame,
                                  ControlState(hpos, state.fp)))
        return (TERMINAL_UNCAUGHT,), edges

    def _pop_handler_edge(self, state: ControlState) -> Edge:
        method, program = state.pos.method, self.program
        push_idx, _ = program.handler_spans[method][state.pos.index]
        push_stmt = program.methods[method].body[push_idx]
        frame = HandlerFrame(push_stmt.class_name, push_stmt.label, method)
        return Edge(state, POP, frame,
                    ControlState(program.advance(state.pos), state.fp))


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def analyze(program: Program, entry, init_store: Store,
            init_taint: TaintStore, cfg: AnalysisConfig,
            summaries: SummaryTable | None = None,
            shared: FiniteShared | None = None,
            budget: Budget | None = None,
            replay: AnalysisResult | None = None) -> AnalysisResult:
    """Run the engine ``cfg.mode`` names from ``entry``, a method or a
    tuple of methods.

    A tuple makes one run whose roots are every method's initial state; its
    result's ``entry`` and ``initial_state`` are the first root's. Without
    a ``budget`` the run gets its own, so ``cfg``'s limits bound this run
    alone. With ``replay``, the result of a plain run whose roots include
    this run's, the run replays it (see ``_BaseEngine``): it shares that
    run's final store pair in place of ``init_store``/``init_taint``.
    ``shared`` carries the finite engine's flow facts between runs; the
    pushdown engine needs none.
    """
    entries = entry if isinstance(entry, tuple) else (entry,)
    summaries = summaries or SummaryTable([])
    if cfg.mode == FINITE:
        engine = _FiniteEngine(program, entries, init_store, init_taint, cfg,
                               summaries, shared, budget, replay)
    else:
        engine = _PushdownEngine(program, entries, init_store, init_taint,
                                 cfg, summaries, budget, replay)
    return engine.run()


# ---------------------------------------------------------------------------
# Path reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    kind: str  # noop | push | pop | summary
    frame: object
    src: ControlState
    dst: ControlState


def reconstruct_path_steps(result: AnalysisResult, frm: ControlState,
                           to: ControlState, trees: dict | None = None
                           ) -> list | None:
    """Shortest edge-count witness path; None when unreachable.

    Pushdown results respect stack balance: a path is pops of the
    pre-existing stack (with balanced segments riding epsilon summaries)
    followed by pushes; finite results use plain graph search, which is
    exactly where their spurious flows become visible.

    The path is read from one BFS tree rooted at ``frm``. A caller asking
    for many paths passes the same ``trees`` dict to every call; it keeps
    one tree per (result, source) for as long as the caller holds it.
    """
    if frm not in result.dsg.nodes or to not in result.dsg.nodes:
        return None
    if frm == to:
        return []
    key = (id(result), frm)
    tree = trees.get(key) if trees is not None else None
    if tree is None:
        tree = _Tree(result, frm)
        if trees is not None:
            trees[key] = tree
    return tree.steps_to(to)


class _Tree:
    """The BFS tree of one (result, source state), grown only as far as the
    paths asked of it need: the first path costs what a search for it alone
    costs, and later paths reuse that work instead of searching again.

    Keys are nodes in a plain tree and (node, phase) in a balanced one.
    """

    def __init__(self, result: AnalysisResult, frm: ControlState):
        self.parent: dict = {}  # key -> (previous key, step kind, frame)
        self.first: dict = {}  # node -> first key discovered for it
        if result.mode == FINITE:
            self._node_of = lambda key: key
            self._keys = _tree_plain(result.dsg, frm, self.parent)
        else:
            self._node_of = lambda key: key[0]
            self._keys = _tree_balanced(result.dsg, frm, self.parent)

    def steps_to(self, to: ControlState) -> list | None:
        node_of = self._node_of
        while to not in self.first:
            key = next(self._keys, None)
            if key is None:
                return None
            self.first.setdefault(node_of(key), key)
        key = self.first[to]
        steps = []
        while self.parent[key] is not None:
            prev, kind, frame = self.parent[key]
            steps.append(PathStep(kind, frame, node_of(prev), node_of(key)))
            key = prev
        steps.reverse()
        return steps


def _tree_plain(dsg: DyckStateGraph, frm, parent: dict):
    """BFS over every edge from ``frm``, out-edges in sorted order.

    Fills ``parent`` with each node's (previous node, edge kind, frame) as
    first discovered, ``frm`` with None, and yields each node as it is
    discovered.
    """
    parent[frm] = None
    queue = deque([frm])
    while queue:
        node = queue.popleft()
        for e in dsg.out_edges(node):
            if e.dst not in parent:
                parent[e.dst] = (node, e.kind, e.frame)
                queue.append(e.dst)
                yield e.dst


def _tree_balanced(dsg: DyckStateGraph, frm, parent: dict):
    """Stack-respecting BFS from ``frm`` over (node, phase) keys.

    Phase DOWN may pop the pre-existing stack; a push moves to phase UP,
    where pops are only crossed by epsilon summaries. Fills ``parent`` with
    each key's (previous key, step kind, frame) as first discovered and
    yields each key as it is discovered.
    """
    DOWN, UP = 0, 1
    start = (frm, DOWN)
    parent[start] = None
    queue = deque([start])
    while queue:
        key = queue.popleft()
        node, phase = key
        moves = []
        for e in dsg.out_edges(node):
            if e.kind == NOOP:
                moves.append(((e.dst, phase), NOOP, None))
            elif e.kind == PUSH:
                moves.append(((e.dst, UP), PUSH, e.frame))
            elif e.kind == POP and phase == DOWN:
                moves.append(((e.dst, DOWN), POP, e.frame))
        for dst in dsg.summaries_from(node):
            moves.append(((dst, phase), "summary", None))
        for nkey, kind, frame in moves:
            if nkey not in parent:
                parent[nkey] = (key, kind, frame)
                queue.append(nkey)
                yield nkey


def replay_stack_actions(steps) -> bool:
    """Check a witness path replays as a legal stack evolution.

    Pops against the unknown pre-existing stack (empty replay stack) are
    allowed; a pop against a frame pushed on the path must match it.
    """
    stack: list = []
    for s in steps:
        if s.kind == PUSH:
            stack.append(s.frame)
        elif s.kind == POP:
            if stack and stack[-1] != s.frame:
                return False
            if stack:
                stack.pop()
    return True
