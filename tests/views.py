"""Entry-point views of a saturation's fixpoint run, and witness helpers,
for tests.

A run keeps no per-entry results: the reports read a complete run's root
masks (``reach.RootMasks``). An entry point's view is what a run from that
entry alone builds over the run's store pair, here read two ways:

* ``mask_view`` reads it from the masks: the nodes whose mask holds the
  bit of the entry's root, and at each stack-dependent node the frames
  whose mask holds it;
* ``walked_views`` walks the graph from each entry's root, as views were
  built before root masks.

``views`` gives a saturation's views in declared order, each read like an
``AnalysisResult``, so tests can compare them with plain runs and with the
walk, and run the reports on one of them.
"""

from pdcfa import machine
from pdcfa.eps import SaturationTrace
from pdcfa.reach import NOOP, POP, PUSH, PUSHDOWN
from pdcfa.taint import TriggerContext


class Window:
    """A view's graph: the run's graph restricted to the view's nodes and,
    unless ``pop_frames`` is None (finite), to the pop edges of the frames
    (None for the empty stack) that ``pop_frames`` lets top each node."""

    def __init__(self, graph, nodes: dict, pop_frames: dict | None):
        self.graph, self.nodes, self.pop_frames = graph, nodes, pop_frames

    @property
    def edges(self) -> dict:
        return {e: None for s in self.nodes for e in self.out_edges(s)}

    @property
    def epsilon_summaries(self) -> frozenset:
        return frozenset((a, b) for a in self.nodes
                         for b in self.graph.summaries_from(a))

    def out_edges(self, s) -> list:
        edges = self.graph.out_edges(s)
        if self.pop_frames is None:
            return edges
        frames = self.pop_frames.get(s, ())
        return [e for e in edges if e.kind != POP or e.frame in frames]

    edges_from = out_edges

    def summaries_from(self, s) -> list:
        return self.graph.summaries_from(s)


class View:
    """One trigger's view of a complete run, read like the
    ``AnalysisResult`` of a run from its entry alone; ``root`` is the
    entry's initial state and ``bit`` its root's bit."""

    def __init__(self, run, trigger, entry, nodes, frames, visits,
                 applications):
        self.mode, self.masks = run.mode, run.masks
        self.final_store, self.final_taint = run.final_store, run.final_taint
        self.trigger, self.entry = trigger, entry
        self.root, self.bit = run.masks.roots[entry]
        self.dsg = Window(run.dsg, nodes, frames)
        self.visit_counts, self.applications = visits, applications

    def source_applications(self) -> list:
        return [a for a in self.applications if a.source_categories]

    def sink_applications(self) -> list:
        return [a for a in self.applications if a.sink_hits]


def mask_view(run, entry) -> tuple:
    """The nodes, pop frames (None if finite), visit counts (its frames at
    a node, or 1) and applications of ``entry``'s view of ``run``, read
    from ``run.masks``."""
    masks = run.masks
    b = 1 << masks.roots[entry][1]
    nodes = {s: None for s, mask in zip(masks.states, masks.node) if mask & b}
    frames: dict = {}
    for t, held in masks.frames.items():
        kept = {f: None for f, fm in held.items() if fm & b}
        if kept:
            frames[masks.states[t]] = kept
    visits = {s: len(frames.get(s, ())) or 1 for s in nodes}
    return (nodes, frames if run.mode == PUSHDOWN else None, visits,
            [a for a in run.applications if a.state in nodes])


def views(trace) -> list:
    """The ``View`` of each of ``trace``'s triggers, in declared order,
    read from its fixpoint run's masks."""
    run = trace.fixpoint
    return [View(run, trigger, entry, *mask_view(run, entry))
            for trigger, entry in trace.triggers]


def with_triggers(trace, triggers) -> SaturationTrace:
    """``trace`` with only ``triggers``: the reports read their parts of
    its fixpoint run alone."""
    return SaturationTrace(trace.fixpoint, list(triggers),
                           trace.global_rounds, trace.complete,
                           trace.limit_reason)


def direct_trace(run) -> SaturationTrace:
    """A plain ``reach.analyze`` run as a saturation whose triggers are its
    roots, each named as a direct run; none if the run stopped at a
    limit."""
    entries = run.masks.roots if run.masks is not None else ()
    return SaturationTrace(
        run, [(TriggerContext("<direct>", e.sig()), e) for e in entries], 1,
        run.complete, run.limit_reason)


def walked_views(program, run, entries) -> dict:
    """Views as they were built before root masks, as a reference: per
    entry, a walk of ``run``'s graph from the entry's root over no-op and
    push edges and ε-summaries (finite: every edge). Each push from a
    walked node puts its frame on the stack-dependent states a balanced
    path (no-op edges and ε-summaries) from its target reaches, and the
    root puts the empty stack, None, on those its own balanced paths
    reach. Returns entry -> (nodes, pop frames or None, visit counts,
    applications)."""
    graph, pushdown = run.dsg, run.mode == PUSHDOWN
    balanced_succ: dict = {}
    for e in graph.edges:
        if e.kind == NOOP:
            balanced_succ.setdefault(e.src, []).append(e.dst)
    for a, b in graph.epsilon_summaries:
        balanced_succ.setdefault(a, []).append(b)
    memo: dict = {}

    def balanced(q) -> list:
        """The stack-dependent states a balanced path from ``q`` reaches."""
        if q not in memo:
            seen, todo = {q}, [q]
            while todo:
                for t in balanced_succ.get(todo.pop(), ()):
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            memo[q] = [t for t in seen
                       if machine.is_stack_dependent(program, t.pos)]
        return memo[q]

    out = {}
    for entry in entries:
        root = machine.state_at(program.starts[entry],
                                machine.frame_pointer_zero(entry))
        nodes, tops, stack = {root: None}, {}, [root]
        while stack:
            s = stack.pop()
            for e in graph.out_edges(s):
                if not pushdown or e.kind != POP:
                    if e.dst not in nodes:
                        nodes[e.dst] = None
                        stack.append(e.dst)
                if pushdown and e.kind == PUSH:
                    for t in balanced(e.dst):
                        tops.setdefault(t, {})[e.frame] = None
            for t in graph.summaries_from(s):
                if t not in nodes:
                    nodes[t] = None
                    stack.append(t)
        for t in balanced(root) if pushdown else ():
            tops.setdefault(t, {})[None] = None
        out[entry] = (nodes, tops if pushdown else None,
                      {s: len(tops.get(s, ())) or 1 for s in nodes},
                      [a for a in run.applications if a.state in nodes])
    return out


def witness_steps(finding) -> tuple:
    """The edges backing ``finding``'s witness: graph edges and
    ``machine.SUMMARY`` crossings."""
    return tuple(s for _, steps in finding.segments for s in steps)


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

