"""Reachability-engine tests: pushdown vs finite, summaries, paths."""

import json
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest

from corpus_micro import MICRO_PROGRAMS, MICRO_SUMMARIES, RUN, STRICT_PROGRAMS
from pdcfa import eps, machine, reach
from pdcfa.cli import load_bundle
from pdcfa.ir import MethodRef, StmtPos, Throw, parse_program
from pdcfa.machine import (
    FunFrame,
    HandlerFrame,
    NOOP,
    POP,
    PUSH,
    SUMMARY,
    RegAddr,
    Store,
    VOID,
    AbstractInt,
    frame_pointer_zero,
    is_stack_dependent,
    seed_entry_bindings,
    step_dependent,
)
from pdcfa.reach import (
    FINITE,
    PUSHDOWN,
    AnalysisConfig,
    ControlState,
    DyckStateGraph,
    Edge,
    analyze,
    reconstruct_path_steps,
)
from pdcfa.taint import (
    SummaryTable,
    TaintStore,
    extract_findings,
    parse_summaries,
)
from soundness import describe
from stores import canonical_text, eval_atomic
from views import replay_stack_actions, views, witness_steps

TABLE = parse_summaries(MICRO_SUMMARIES)
BENCH = Path(__file__).resolve().parent.parent / "bench"
EMPTY = SummaryTable([])


def _seeded(program, entry, cfg):
    store, taint = Store(), TaintStore()
    seed_entry_bindings(program, entry, store, taint)
    return store, taint


def _pushdown(src, entry=RUN, k=1, table=TABLE):
    program = parse_program(src)
    cfg = AnalysisConfig(k=k)
    store, taint = _seeded(program, entry, cfg)
    return program, analyze(program, (entry,), store, taint, cfg, table)


def _finite(src, entry=RUN, k=1, table=TABLE):
    program = parse_program(src)
    cfg = AnalysisConfig(mode="finite", k=k)
    store, taint = _seeded(program, entry, cfg)
    return program, analyze(program, (entry,), store, taint, cfg, table)


@pytest.mark.parametrize("engine", [_pushdown, _finite],
                         ids=["pushdown", "finite"])
def test_single_return_joins_ret_in_the_root_frame(engine):
    """A return under the root's empty stack joins its value into the root
    frame's ``ret``; under both engines."""
    src = """
(public class Main extends java/lang/Object ()
  ((method public run () void (throws) (limit 1)
     (return void))))
"""
    program, res = engine(src, table=EMPTY)
    assert 1 <= len(res.dsg.nodes) <= 2
    fp0 = frame_pointer_zero(RUN)
    ret_vals = res.final_store.lookup(RegAddr(fp0, "ret"))
    assert ret_vals == {VOID}


def test_call_and_return_with_one_summary():
    src = """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (assign r (invoke-static Main->f () ()))
     (return ret))
   (method public f () int (throws) (limit 1)
     (return 1))))
"""
    program, res = _pushdown(src, table=EMPTY)
    fp0 = frame_pointer_zero(RUN)
    assert AbstractInt(1) in res.final_store.lookup(RegAddr(fp0, "ret"))
    # exactly one generated epsilon summary: over f's balanced body
    assert len(res.dsg.epsilon_summaries) == 1
    ((a, b),) = res.dsg.epsilon_summaries
    assert a.pos == StmtPos(RUN, 0)
    assert b.pos == StmtPos(RUN, 0, at_move=True)


def test_late_caller_gets_its_own_summary_and_return(monkeypatch):
    """``late_second_caller`` at k=1: both of mid's frames push into inc's
    one entry state. inc's return is stepped under the first mid's frame
    before the second mid's call pushes, and that later push still gets
    its return edge and its ε-summary, written out here by hand."""
    steps = []  # (state, its top or None), in the order the run steps them
    independent = machine.step_independent

    def logged_independent(program, state, *args):
        steps.append((state, None))
        return independent(program, state, *args)

    def logged_dependent(program, state, top, *args):
        steps.append((state, top))
        return step_dependent(program, state, top, *args)

    monkeypatch.setattr(machine, "step_independent", logged_independent)
    monkeypatch.setattr(machine, "step_dependent", logged_dependent)
    program, res = _pushdown(MICRO_PROGRAMS["late_second_caller"][0])
    mid = MethodRef("Main", "mid", ("int",))
    inc = MethodRef("Main", "inc", ("int",))
    fp0 = frame_pointer_zero(RUN)
    fp_a = machine.FramePointer(mid, (StmtPos(RUN, 0),))
    fp_b = machine.FramePointer(mid, (StmtPos(RUN, 1),))
    fp_inc = machine.FramePointer(inc, (StmtPos(mid, 0),))

    def at(method, index, fp, move=False):
        return ControlState(StmtPos(method, index, at_move=move), fp)

    def returns_to(method, index, fp):
        return FunFrame(fp, StmtPos(method, index, at_move=True))

    assert set(res.dsg.epsilon_summaries) == {
        (at(RUN, 0, fp0), at(RUN, 0, fp0, True)),
        (at(RUN, 1, fp0), at(RUN, 1, fp0, True)),
        (at(mid, 0, fp_a), at(mid, 0, fp_a, True)),
        (at(mid, 0, fp_b), at(mid, 0, fp_b, True))}
    assert {e for e in res.dsg.edges if e.kind == POP} == {
        Edge(at(inc, 0, fp_inc), POP, returns_to(mid, 0, fp_a),
             at(mid, 0, fp_a, True)),
        Edge(at(inc, 0, fp_inc), POP, returns_to(mid, 0, fp_b),
             at(mid, 0, fp_b, True)),
        Edge(at(mid, 1, fp_a), POP, returns_to(RUN, 0, fp0),
             at(RUN, 0, fp0, True)),
        Edge(at(mid, 1, fp_b), POP, returns_to(RUN, 1, fp0),
             at(RUN, 1, fp0, True))}
    assert steps.index((at(inc, 0, fp_inc), returns_to(mid, 0, fp_a))) \
        < steps.index((at(mid, 0, fp_b), None))


TWO_SITES_HANDLERS = """
(public class java/lang/Throwable extends java/lang/Object () ())
(public class java/lang/Exception extends java/lang/Throwable () ())
(public class Fault extends java/lang/Exception () ())
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 4)
     (push-handler Fault h1)
     (assign x (invoke-static Main->boom () ()))
     (pop-handler)
     (push-handler Fault h2)
     (assign y (invoke-static Main->boom () ()))
     (pop-handler)
     (return 0)
     (label h1)
     (return 1)
     (label h2)
     (return 2))
   (method public boom () int (throws Fault) (limit 3)
     (assign c (invoke-static test/Api->getNumber () ()))
     (if (eq c 0) (goto t))
     (return 0)
     (label t)
     (assign e (new Fault))
     (throw e))))
"""


def test_pushdown_separates_handlers_per_call_site():
    """The central precision property: each throw returns only to the
    handler guarding its own call site; no cross-handler edges."""
    program, res = _pushdown(TWO_SITES_HANDLERS)
    run = RUN
    boom = MethodRef("Main", "boom", ())
    h1_states = [s for s in res.dsg.nodes
                 if s.pos == program.labels[(run, "h1")].pos]
    h2_states = [s for s in res.dsg.nodes
                 if s.pos == program.labels[(run, "h2")].pos]
    assert len(h1_states) == 1 and len(h2_states) == 1
    # handler states carry the thrower's frame pointer; with k=1 the two
    # call sites give boom distinct frame pointers
    (h1,) = h1_states
    (h2,) = h2_states
    assert h1.fp.method == boom and h2.fp.method == boom
    assert h1.fp.context == (StmtPos(run, 1),)
    assert h2.fp.context == (StmtPos(run, 4),)
    # no edge carries a throw from one site's frames into the other handler
    for e in res.dsg.edges:
        if e.dst == h1:
            assert e.src.fp.context == (StmtPos(run, 1),)
        if e.dst == h2:
            assert e.src.fp.context == (StmtPos(run, 4),)


def test_finite_k0_merges_the_two_handlers():
    program, res = _finite(TWO_SITES_HANDLERS, k=0)
    run = RUN
    h1 = program.labels[(run, "h1")].pos
    h2 = program.labels[(run, "h2")].pos
    throw_edges_h1 = [e for e in res.dsg.edges if e.dst.pos == h1]
    throw_edges_h2 = [e for e in res.dsg.edges if e.dst.pos == h2]
    # the single merged throw state reaches both handlers
    assert {e.src.pos.method.method_name for e in throw_edges_h1} == {"boom"}
    assert {e.src.pos.method.method_name for e in throw_edges_h2} == {"boom"}
    assert {e.src for e in throw_edges_h1} == {e.src for e in throw_edges_h2}


def test_straight_line_node_sets_identical():
    src = """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 2)
     (assign a 1)
     (assign b (add a 2))
     (return b))))
"""
    _p1, res_p = _pushdown(src, table=EMPTY)
    _p2, res_f = _finite(src, table=EMPTY)
    assert set(res_p.dsg.nodes) == set(res_f.dsg.nodes)


@pytest.mark.parametrize("name", sorted(MICRO_PROGRAMS))
@pytest.mark.parametrize("k", [0, 1])
def test_pushdown_subset_of_finite_on_corpus(name, k):
    src, _o, _r = MICRO_PROGRAMS[name]
    _p1, res_p = _pushdown(src, k=k)
    _p2, res_f = _finite(src, k=k)
    assert set(res_p.dsg.nodes) <= set(res_f.dsg.nodes)


@pytest.mark.parametrize("name", sorted(STRICT_PROGRAMS))
def test_finite_strictly_coarser_on_merged_return_contexts(name):
    src = STRICT_PROGRAMS[name]
    _p1, res_p = _pushdown(src, k=1)
    _p2, res_f = _finite(src, k=1)
    assert set(res_p.dsg.nodes) < set(res_f.dsg.nodes), name


def test_nested_calls_node_superset():
    src, _o, _r = MICRO_PROGRAMS["call_depth4"]
    _p1, res_p = _pushdown(src, k=1)
    _p2, res_f = _finite(src, k=1)
    assert set(res_p.dsg.nodes) <= set(res_f.dsg.nodes)


def test_mixed_receiver_set_dispatches_to_every_override():
    src = """
(public class A extends java/lang/Object ()
  ((method public m () int (throws) (limit 1) (return 1))))
(public class B extends A ()
  ((method public m () int (throws) (limit 1) (return 2))))
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 4)
     (assign c (invoke-static test/Api->getNumber () ()))
     (assign o (new A))
     (if (eq c 1) (goto keep))
     (assign o (new B))
     (label keep)
     (assign x (invoke-virtual m (o) ()))
     (return x))))
"""
    _program, res = _pushdown(src)
    reached = {s.pos.method.sig() for s in res.dsg.nodes}
    assert {"A.m()", "B.m()"} <= reached
    fp0 = frame_pointer_zero(RUN)
    receivers = res.final_store.lookup(RegAddr(fp0, "o"))
    assert {v.class_name for v in receivers} == {"A", "B"}


def test_fixpoint_rerun_is_stable():
    src, _o, _r = MICRO_PROGRAMS["taint_chain"]
    program = parse_program(src)
    cfg = AnalysisConfig(k=1)
    store, taint = _seeded(program, RUN, cfg)
    first = analyze(program, (RUN,), store, taint, cfg, TABLE)
    second = analyze(program, (RUN,), first.final_store,
                     first.final_taint, cfg, TABLE)
    assert canonical_text(first.final_store) \
        == canonical_text(second.final_store)
    assert set(first.dsg.nodes) == set(second.dsg.nodes)



@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_analyze_copies_the_callers_store_pair(mode):
    src, _o, _r = MICRO_PROGRAMS["taint_chain"]
    program = parse_program(src)
    cfg = AnalysisConfig(mode=mode, k=1)
    store, taint = _seeded(program, RUN, cfg)
    before = canonical_text(store), canonical_text(taint)
    res = reach.analyze(program, (RUN,), store, taint, cfg, TABLE)
    assert res.final_store is not store and res.final_taint is not taint
    assert (canonical_text(store), canonical_text(taint)) == before
    assert canonical_text(res.final_store) != before[0]  # the copy grew

def test_deterministic_across_runs():
    src, _o, _r = MICRO_PROGRAMS["try_nested"]
    results = [_pushdown(src)[1] for _ in range(2)]
    texts = [canonical_text(r.final_store) for r in results]
    assert texts[0] == texts[1]
    assert [s.sort_key() for s in results[0].dsg.nodes] \
        == [s.sort_key() for s in results[1].dsg.nodes]
    assert results[0].visit_counts == results[1].visit_counts


def test_resource_limit_flags_incomplete():
    src, _o, _r = MICRO_PROGRAMS["call_depth4"]
    program = parse_program(src)
    cfg = AnalysisConfig(k=1, max_states=3)
    store, taint = _seeded(program, RUN, cfg)
    res = analyze(program, (RUN,), store, taint, cfg, EMPTY)
    assert not res.complete
    assert res.limit_reason == "max-states"


# -- path reconstruction -----------------------------------------------------


def test_path_from_equals_to():
    _p, res = _pushdown(MICRO_PROGRAMS["arith_add"][0], table=EMPTY)
    s = res.masks.roots[RUN][0]
    assert reconstruct_path_steps(res, s, s, {}, 0) == []


def test_path_simple_noop_chain():
    _p, res = _pushdown(MICRO_PROGRAMS["arith_add"][0], table=EMPTY)
    nodes = sorted(res.dsg.nodes, key=lambda n: n.sort_key())
    start = res.masks.roots[RUN][0]
    end = [n for n in nodes if n.pos.index == 3][0]
    steps = reconstruct_path_steps(res, start, end, {}, 0)
    assert steps is not None
    path = [start, *(step.dst for step in steps)]
    assert path[0] == start and path[-1] == end
    assert len(path) == 4


def test_path_unreachable_is_none():
    _p, res = _pushdown(MICRO_PROGRAMS["goto_skip"][0], table=EMPTY)
    start = res.masks.roots[RUN][0]
    dead = ControlState(StmtPos(RUN, 2), frame_pointer_zero(RUN))
    assert dead not in res.dsg.nodes                 # dead code never explored
    assert reconstruct_path_steps(res, start, dead, {}, 0) is None


def test_path_through_push_and_callee_summary():
    """A sink inside a callee is reached via a push edge; the path back out
    rides the callee's epsilon summary."""
    src = """
(public class Main extends java/lang/Object ()
  ((method public run () int (throws) (limit 3)
     (assign a (invoke-static Main->helper () ()))
     (assign b (add a 1))
     (return b))
   (method public helper () int (throws) (limit 2)
     (assign s (invoke-static test/Api->getSecret () ()))
     (return s))))
"""
    program, res = _pushdown(src)
    helper = MethodRef("Main", "helper", ())
    inside = [s for s in res.dsg.nodes if s.pos.method == helper][0]
    start = res.masks.roots[RUN][0]
    steps_in = reconstruct_path_steps(res, start, inside, {}, 0)
    assert steps_in is not None
    assert any(s.kind == PUSH for s in steps_in)
    after = [s for s in res.dsg.nodes
             if s.pos == StmtPos(RUN, 1)][0]
    steps_over = reconstruct_path_steps(res, start, after, {}, 0)
    assert steps_over is not None
    kinds = [s.kind for s in steps_over]
    assert SUMMARY in kinds  # the callee's balanced body is summarized
    assert replay_stack_actions(steps_over)


def test_balanced_paths_replay():
    for name in ("try_nested", "rethrow", "call_two_sites"):
        src, _o, _r = MICRO_PROGRAMS[name]
        _p, res = _pushdown(src)
        start, trees = res.masks.roots[RUN][0], {}
        for node in res.dsg.nodes:
            steps = reconstruct_path_steps(res, start, node, trees, 0)
            if steps is not None:
                assert replay_stack_actions(steps), (name, describe(node))


def test_replay_stack_actions_matches_pops_against_pushed_frames():
    """A pop replays when it matches the frame last pushed on the path, or
    when nothing the path pushed is left (it pops the stack the path started
    under); a pop of a different frame than the one pushed does not."""
    states = [ControlState(StmtPos(RUN, i), frame_pointer_zero(RUN))
              for i in range(4)]
    call = FunFrame(frame_pointer_zero(RUN), StmtPos(RUN, 0, at_move=True))
    handler = HandlerFrame("Fault", "h", RUN)

    def path(*actions):
        return [Edge(states[i], kind, frame, states[i + 1])
                for i, (kind, frame) in enumerate(actions)]

    assert replay_stack_actions(path((PUSH, call), (POP, call)))
    assert replay_stack_actions(path((PUSH, handler), (PUSH, call),
                                     (POP, call)))
    assert not replay_stack_actions(path((PUSH, handler), (POP, call)))
    assert not replay_stack_actions(path((PUSH, call), (PUSH, handler),
                                         (POP, call)))
    assert replay_stack_actions(path((POP, call)))
    assert replay_stack_actions(path((PUSH, call), (POP, call),
                                     (POP, handler)))


# -- witness trees against a per-pair search ----------------------------------
#
# The reference below is the per-(source, target) BFS the analyzer used
# before witnesses were read from one tree per source: it stops at the first
# discovery of the target. Reading the same path from an exhaustive tree must
# give the same steps.


def _ref_unwind(parent, key):
    steps = []
    while parent[key] is not None:
        prev, step = parent[key]
        steps.append(step)
        key = prev
    steps.reverse()
    return steps


def _ref_bfs_plain(dsg, frm, to):
    parent = {frm: None}
    queue = deque([frm])
    while queue:
        node = queue.popleft()
        for e in sorted(dsg.out_edges(node), key=lambda e: e.sort_key()):
            if e.dst in parent:
                continue
            parent[e.dst] = (node, e)
            if e.dst == to:
                return _ref_unwind(parent, e.dst)
            queue.append(e.dst)
    return None


def _ref_bfs_balanced(dsg, frm, to):
    DOWN, UP = 0, 1
    start = (frm, DOWN)
    parent = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        node, phase = key
        moves = []
        for e in sorted(dsg.out_edges(node), key=lambda e: e.sort_key()):
            if e.kind in (NOOP, SUMMARY):
                moves.append(((e.dst, phase), e))
            elif e.kind == PUSH:
                moves.append(((e.dst, UP), e))
            elif e.kind == POP and phase == DOWN:
                moves.append(((e.dst, DOWN), e))
        for nkey, step in moves:
            if nkey in parent:
                continue
            parent[nkey] = (key, step)
            if nkey[0] == to:
                return _ref_unwind(parent, nkey)
            queue.append(nkey)
    return None


def _ref_path_steps(res, frm, to):
    if frm == to:
        return []
    if res.mode == "finite":
        return _ref_bfs_plain(res.dsg, frm, to)
    return _ref_bfs_balanced(res.dsg, frm, to)


BUNDLE_NAMES = ("perm_over", "perm_zero", "photoquote_exception",
                "photoquote_full", "three_unit_relay")


def _saturated(bundles_dir, name, mode, k=1):
    bundle = load_bundle(bundles_dir / name)
    units = eps.discover_entry_points(bundle, bundle.program)
    _s, _t, trace = eps.saturate_app(bundle.program, units,
                                     AnalysisConfig(mode=mode, k=k),
                                     bundle.summaries)
    return trace


def _fixpoint_run(program, units, k, summaries) -> tuple:
    """The app-wide pushdown fixpoint run ``eps.saturate_app`` makes, every
    entry point's bindings seeded into one store pair and every entry point
    a root; returns the run and its roots."""
    refs = tuple(ep.method_ref for unit in units for ep in unit.entry_points)
    store, taint = Store(), TaintStore()
    for ref in refs:
        seed_entry_bindings(program, ref, store, taint)
    return (analyze(program, refs, store, taint, AnalysisConfig(k=k),
                    summaries),
            [ControlState(StmtPos(ref, 0), frame_pointer_zero(ref))
             for ref in refs])


def _reached(start, succ) -> set:
    seen, todo = {start}, [start]
    while todo:
        for n in succ.get(todo.pop(), ()):
            if n not in seen:
                seen.add(n)
                todo.append(n)
    return seen


def _naive_closure(dsg, roots=()) -> tuple:
    """Recomputed over ``dsg``'s own edges alone: the least set of summaries
    (p, t) such that a push p -> q with frame f, a path q ~> r over noop
    edges and summaries, and a pop r -> t with frame f exist; for each
    state r, the (frame f, push source p) of the pushes p -> q with such a
    path q ~> r; and for each of ``roots``, the states such a path from it
    reaches, itself included."""
    noop, pops, pushes = {}, {}, []
    for e in dsg.edges:
        if e.kind == NOOP:
            noop.setdefault(e.src, set()).add(e.dst)
        elif e.kind == PUSH:
            pushes.append(e)
        else:
            pops.setdefault((e.src, e.frame), set()).add(e.dst)
    summaries: set = set()
    while True:
        succ = {n: set(dsts) for n, dsts in noop.items()}
        for a, b in summaries:
            succ.setdefault(a, set()).add(b)
        found, tops = set(), {}
        for push in pushes:
            for r in _reached(push.dst, succ):
                tops.setdefault(r, set()).add((push.frame, push.src))
                found.update((push.src, t)
                             for t in pops.get((r, push.frame), ()))
        if found <= summaries:
            return summaries, tops, {r: _reached(r, succ) for r in roots}
        summaries |= found


def _naive_exported_tops(program, tops, balanced) -> dict:
    """What a pushdown run hands its ``RootMasks`` as tops, from
    ``_naive_closure``'s tops and balanced sets: each push source or root
    -> {(frame, or None from a root, stack-dependent state it tops)}."""
    want: dict = {}
    entries = [(src, frame, r) for r, pairs in tops.items()
               for frame, src in pairs]
    entries += [(root, None, r) for root, reached in balanced.items()
                for r in reached]
    for src, frame, r in entries:
        if is_stack_dependent(program, r.pos):
            want.setdefault(src, set()).add((frame, r))
    return want


def _exported_tops(states, tops) -> dict:
    """The id-keyed tops a pushdown run hands its ``RootMasks``, read as
    ``_naive_exported_tops`` writes them."""
    got: dict = {}
    for t, frames in tops.items():
        for frame, sources in frames.items():
            for src in sources:
                got.setdefault(states[src], set()).add((frame, states[t]))
    return got


def _frame_masks(masks) -> dict:
    """A pushdown run's frame masks (``RootMasks.frames``), each keyed by
    its (stack-dependent state, frame or None)."""
    return {(masks.states[t], frame): fm for t, frames in masks.frames.items()
            for frame, fm in frames.items()}


def _naive_frame_masks(masks, exported) -> dict:
    """The frame masks ``masks`` should hold for the tops ``exported``
    (``_naive_exported_tops``): per (state, frame), the OR of the node
    masks of the frame's push sources; for the empty stack, the OR of the
    bits of the roots with a balanced path to the state."""
    ids = {s: i for i, s in enumerate(masks.states)}
    want: dict = {}
    for src, pairs in exported.items():
        for frame, r in pairs:
            m = (1 << masks.bits[src] if frame is None
                 else masks.node[ids[src]])
            want[(r, frame)] = want.get((r, frame), 0) | m
    return want


def _reference_bundles(tmp_path, monkeypatch) -> list:
    """The wide-pushdown and finite-witness bundles of
    ``bench/reference.json``: (workload, bundle, units, k)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    refs = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    out = []
    for workload in ("wide-pushdown", "finite-witness"):
        ref = refs[workload]
        bundle = load_bundle(synth.generate(
            synth.Shape.parse(ref["shape"]), ref["seed"]).write(
                tmp_path / workload))
        out.append((workload, bundle,
                    eps.discover_entry_points(bundle, bundle.program),
                    ref["k"]))
    return out


def _generated_fixpoint_runs(tmp_path, monkeypatch) -> list:
    """The pushdown fixpoint runs of the wide-pushdown and finite-witness
    bundles of ``bench/reference.json``."""
    return [(f"{workload} fixpoint", bundle.program, *_fixpoint_run(
        bundle.program, units, k, bundle.summaries))
        for workload, bundle, units, k in _reference_bundles(tmp_path,
                                                             monkeypatch)]


def test_summaries_equal_naive_recomputation(bundles_dir, tmp_path,
                                             monkeypatch):
    """The engine's incrementally closed summaries equal a fixpoint
    recomputed over each final result's own edges, and its pop edges are
    exactly the machine's steps under the frames that fixpoint puts on top
    of each stack-dependent state. An engine run's exported tops are that
    recomputation's (frame, push source) pairs and its roots' balanced
    sets, at stack-dependent states, and its frame masks are those pairs
    folded. The entry points' views, read from the masks, hold the same
    summaries and pop edges over their own edges."""
    exported = {}  # id(run) -> the node states and tops it hands its masks
    policies = {}  # id(masks) -> the policy of the run that made them
    result = reach._BaseEngine._result

    def recorded(engine, tops=None):
        res = result(engine, tops)
        exported[id(res)] = engine.dsg.states, tops
        policies[id(res.masks)] = engine.policy
        return res

    monkeypatch.setattr(reach._BaseEngine, "_result", recorded)
    results = []  # (label, program, result, its roots or None for a view)
    for name in BUNDLE_NAMES:
        bundle = load_bundle(bundles_dir / name)
        units = eps.discover_entry_points(bundle, bundle.program)
        for k in (0, 1, 2):
            results += [(f"{name} k={k}", bundle.program, res, None) for res
                        in views(_saturated(bundles_dir, name, "pushdown",
                                            k))]
            results.append((f"{name} k={k} fixpoint", bundle.program,
                            *_fixpoint_run(bundle.program, units, k,
                                           bundle.summaries)))
    results += _generated_fixpoint_runs(tmp_path, monkeypatch)
    for name, src in sorted({**STRICT_PROGRAMS, **{
            n: v[0] for n, v in MICRO_PROGRAMS.items()}}.items()):
        program, res = _pushdown(src)
        results.append((name, program, res, [res.masks.roots[RUN][0]]))
    mismatches = []
    for label, program, res, roots in results:
        summaries, tops, balanced = _naive_closure(res.dsg, roots or ())
        if set(res.dsg.epsilon_summaries) != summaries:
            mismatches.append(f"{label}: summaries")
        assert res.masks is not None
        if roots is not None:
            want = _naive_exported_tops(program, tops, balanced)
            masks = res.masks
            if _exported_tops(*exported[id(res)]) != want:
                mismatches.append(f"{label}: exported tops")
            if _frame_masks(masks) != _naive_frame_masks(masks, want):
                mismatches.append(f"{label}: frame masks")
        store, taint = res.final_store.copy(), res.final_taint.copy()
        pops = set()
        for r, pairs in tops.items():
            if not is_stack_dependent(program, r.pos):
                continue
            for frame in {frame for frame, _src in pairs}:
                pops.update(step_dependent(program, r, frame, store, taint,
                                           policies[id(res.masks)]))
        if {e for e in res.dsg.edges if e.kind == POP} != pops:
            mismatches.append(f"{label}: pop edges")
    assert not mismatches
    assert sum(roots is not None for *_r, roots in results) > 3 * len(
        BUNDLE_NAMES) + 2
    assert any(res.dsg.epsilon_summaries for _l, _p, res, _r in results)


def test_finite_root_masks_equal_forward_search(bundles_dir, tmp_path,
                                                monkeypatch):
    """Each node's mask in a finite fixpoint run holds exactly the roots
    that reach it by forward search over every edge: shipped bundles at k
    0-2, the synth bundles of ``bench/reference.json`` at their k."""
    cases = []  # (label, bundle, units, k)
    for name in BUNDLE_NAMES:
        bundle = load_bundle(bundles_dir / name)
        units = eps.discover_entry_points(bundle, bundle.program)
        cases += [(f"{name} k={k}", bundle, units, k) for k in (0, 1, 2)]
    cases += _reference_bundles(tmp_path, monkeypatch)
    for label, bundle, units, k in cases:
        refs = [ep.method_ref for unit in units for ep in unit.entry_points]
        res, _shared = _finite_fixpoint(bundle.program, refs, k,
                                        bundle.summaries)
        masks, succ = res.masks, {}
        for e in res.dsg.edges:
            succ.setdefault(e.src, set()).add(e.dst)
        want = dict.fromkeys(res.dsg.nodes, 0)
        for ref in refs:
            root = ControlState(StmtPos(ref, 0), frame_pointer_zero(ref))
            for n in _reached(root, succ):
                want[n] |= 1 << masks.bits[root]
        assert dict(zip(masks.states, masks.node)) == want, label
        assert all(want.values()) and masks.frames == {}, label


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_tree_paths_equal_per_pair_search(bundles_dir, name, mode):
    """The path between every pair of nodes of each entry point's view (a
    superset of the initial and source-application states witnesses start
    from), searched in the fixpoint run's graph restricted to the view's
    bit, equals the per-pair search over the view, with a fresh tree for
    each pair and with trees shared across pairs; a node outside the view
    has no path."""
    trace = _saturated(bundles_dir, name, mode)
    run, trees = trace.fixpoint, {}
    for view in views(trace):
        nodes = sorted(view.dsg.nodes, key=lambda n: n.sort_key())
        for frm in nodes:
            for to in nodes:
                want = _ref_path_steps(view, frm, to)
                assert reconstruct_path_steps(run, frm, to, {},
                                              view.bit) == want
                assert reconstruct_path_steps(run, frm, to, trees,
                                              view.bit) == want
        outside = [n for n in run.dsg.nodes if n not in view.dsg.nodes]
        for to in outside[:5]:
            assert reconstruct_path_steps(run, view.root, to,
                                          trees, view.bit) is None


@pytest.mark.parametrize("name", ["guard_gap", "post_region",
                                  "two_handlers"])
def test_part_paths_equal_per_pair_search_with_every_method_an_entry(name):
    """With every method of ``Main`` an entry point at k=0, a root's part
    keeps only some of a shared node's pop edges, so paths between the
    same two nodes differ across parts; each equals the per-pair search
    over that entry point's view."""
    program = parse_program(STRICT_PROGRAMS[name])
    refs = sorted((m for m in program.methods if m.class_name == "Main"),
                  key=MethodRef.sort_key)
    unit = eps.Unit("U", "activity", tuple(
        eps.EntryPoint(r, "ui-handler", "layout") for r in refs))
    _s, _t, trace = eps.saturate_app(program, [unit], AnalysisConfig(k=0),
                                     TABLE)
    run, paths = trace.fixpoint, {}
    for view in views(trace):
        for frm in view.dsg.nodes:
            for to in view.dsg.nodes:
                got = reconstruct_path_steps(run, frm, to, {}, view.bit)
                assert got == _ref_path_steps(view, frm, to)
                paths.setdefault((frm, to), set()).add(
                    None if got is None else tuple(got))
    assert any(len(found) > 1 for found in paths.values())


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_tree_breaks_ties_by_sorted_edges(mode):
    """Two shortest paths lead to the last node; the one through the edge
    that sorts first wins, whatever order the edges were added in."""
    a, b, c, d = (ControlState(StmtPos(RUN, i), frame_pointer_zero(RUN))
                  for i in range(4))
    dsg = DyckStateGraph()
    ids = {s: dsg.add_node(s) for s in (a, b, c, d)}
    for src, dst in ((a, c), (a, b), (c, d), (b, d)):
        dsg.add_edge(ids[src], Edge(src, NOOP, None, dst), ids[dst])
    # the masks of a run rooted at a alone: every node holds bit 0
    engine = SimpleNamespace(dsg=dsg, roots=[a], entries=(RUN,),
                             cfg=AnalysisConfig(mode=mode))
    res = SimpleNamespace(dsg=dsg, mode=mode,
                          masks=reach.RootMasks(engine, None))
    steps = reconstruct_path_steps(res, a, d, {}, 0)
    assert [s.dst for s in steps] == [b, d]
    assert steps == _ref_path_steps(res, a, d)


@pytest.mark.parametrize("mode", ["pushdown", "finite"])
def test_findings_build_one_tree_per_result_and_source(bundles_dir,
                                                       monkeypatch, mode):
    """Findings build at most one witness tree per (root's bit, source
    state)."""
    built = []
    init = reach._Tree.__init__

    def counted(self, result, frm, bit):
        built.append((bit, frm))
        init(self, result, frm, bit)

    monkeypatch.setattr(reach._Tree, "__init__", counted)
    for name in BUNDLE_NAMES:
        trace = _saturated(bundles_dir, name, mode)
        built.clear()
        findings = extract_findings(trace)
        assert len(built) == len(set(built)), name
        if findings:
            assert built, name


REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
# every configuration whose report digests tests/test_golden.py pins:
# (shipped bundle, None) or (synth shape, seed), then mode and k
GOLDEN = [
    *((bundle, None, mode, int(k.removeprefix("k=")))
      for bundle, mode, k in map(str.split, sorted(REFERENCE["corpus"]))),
    *((REFERENCE[w]["shape"], REFERENCE[w]["seed"], REFERENCE[w]["mode"],
       REFERENCE[w]["k"]) for w in ("finite-witness", "wide-pushdown")),
    ("6x8x3x2", 7, PUSHDOWN, 1), ("6x8x3x2", 1, PUSHDOWN, 0),
    ("6x8x3x2", 1, PUSHDOWN, 2), ("4x6x3x2", 1, FINITE, 1),
]


@pytest.mark.parametrize("name,seed,mode,k", GOLDEN)
def test_witness_steps_are_the_graphs_own_edges(bundles_dir, tmp_path,
                                                monkeypatch, name, seed,
                                                mode, k):
    """Every witness step of every finding is an edge the fixpoint run's
    graph returns from ``out_edges`` (the very object); a ``SUMMARY`` step
    is one of its epsilon summaries."""
    if seed is not None:
        monkeypatch.syspath_prepend(str(BENCH))
        import synth

        synth.generate(synth.Shape.parse(name), seed).write(tmp_path / name)
        bundles_dir = tmp_path
    trace = _saturated(bundles_dir, name, mode, k)
    dsg = trace.fixpoint.dsg
    steps = [s for f in extract_findings(trace) for s in witness_steps(f)]
    for step in steps:
        if step.kind == SUMMARY:
            assert step.frame is None, step
            assert (step.src, step.dst) in dsg.epsilon_summaries, step
        assert any(e is step for e in dsg.out_edges(step.src)), step
    assert steps or seed is None  # every synth bundle has findings


# -- finite throw step against a naive scan -------------------------------------


def _naive_throw_edges(engine, state, st):
    """The throw step's edges by a scan of every handler record in sorted
    order: its class tested by walking the thrown classes' superclass
    chains, its scope by walking the call graph from the calls inside its
    region."""
    program = engine.program
    vals = eval_atomic(program, st.exp, state.fp, engine.store)
    thrown = [v for v in vals if isinstance(v, machine.ObjectValue)]
    if not thrown:
        return []
    graph: dict = {}
    for callee_fp, entries in engine.shared.call_edges.items():
        for caller_state, _frame in entries:
            graph.setdefault(caller_state.pos.method, []).append(
                (caller_state.pos.index, callee_fp.method))

    def scope_allows(rec):
        lo, hi = rec.region
        owner = rec.frame.owner
        if state.pos.method == owner and lo < state.pos.index < hi:
            return True
        frontier = [m for idx, m in graph.get(owner, []) if lo < idx < hi]
        seen: set = set()
        while frontier:
            m = frontier.pop()
            if m in seen:
                continue
            seen.add(m)
            if m == state.pos.method:
                return True
            frontier.extend(m2 for _idx, m2 in graph.get(m, []))
        return False

    edges = {}  # one edge per frame, however many of its records catch
    for rec in sorted(engine.shared.handler_records,
                      key=lambda r: (r.frame.sort_key(), r.region)):
        catchable = [v for v in thrown
                     if any(c == rec.frame.class_name for c in
                            program.superclass_chain(v.class_name))]
        if not catchable or not scope_allows(rec):
            continue
        hpos = program.labels[(rec.frame.owner, rec.frame.label)].pos
        edges[Edge(state, POP, rec.frame, ControlState(hpos, state.fp))] = None
    return list(edges)


@pytest.fixture
def checked_throw_steps(monkeypatch):
    """Compare every finite throw step's edges with the naive scan; yields
    a list that gets one entry per compared step, its edge count."""
    steps = []
    original = reach._FiniteEngine._step_throw

    def step_throw(engine, state, code):
        expected = _naive_throw_edges(engine, state, code.stmt)
        edges = original(engine, state, code)
        assert edges == expected, describe(state)
        steps.append(len(edges))
        return edges

    monkeypatch.setattr(reach._FiniteEngine, "_step_throw", step_throw)
    return steps


@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_throw_step_matches_naive_scan_on_bundles(bundles_dir, name,
                                                  checked_throw_steps):
    for k in (0, 1, 2):
        _saturated(bundles_dir, name, "finite", k)
    if name.startswith("photoquote"):
        assert any(checked_throw_steps)


def test_throw_step_matches_naive_scan_on_micro_programs(checked_throw_steps):
    sources = [src for src, _o, _r in MICRO_PROGRAMS.values()]
    sources += list(STRICT_PROGRAMS.values())
    throwing = [src for src in sources if "(throw " in src]
    assert len(throwing) >= 8
    for src in throwing:
        for k in (0, 1):
            _finite(src, k=k)
    assert sum(1 for n in checked_throw_steps if n) >= len(throwing)


def test_throw_step_matches_naive_scan_on_synth(tmp_path, monkeypatch,
                                                checked_throw_steps):
    """Every throw step matches the naive scan; every throw state of the run
    is compared, and its last step, which its edges in the graph come from,
    builds what the naive scan finds under the final flow facts and store."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    root = synth.generate(synth.Shape.parse("2x4x3x2"), 1).write(
        tmp_path / "bundle")
    bundle = load_bundle(root)
    units = eps.discover_entry_points(bundle, bundle.program)
    last = {}  # throw state -> (engine, statement, edges) of its last step
    checked = reach._FiniteEngine._step_throw

    def step_throw(engine, state, code):
        last[state] = (engine, code.stmt, checked(engine, state, code))
        return last[state][2]

    monkeypatch.setattr(reach._FiniteEngine, "_step_throw", step_throw)
    eps.saturate_app(bundle.program, units, AnalysisConfig(mode="finite"),
                     bundle.summaries)
    (engine,) = {id(e): e for e, _st, _edges in last.values()}.values()
    throws = {s for s in engine.dsg.nodes
              if isinstance(bundle.program.code[s.pos].stmt, Throw)}
    assert throws and set(last) == throws
    for state, (_engine, st, edges) in last.items():
        assert edges == _naive_throw_edges(engine, state, st), \
            describe(state)
    assert sum(checked_throw_steps) > 0


def _finite_fixpoint(program, refs, k, summaries) -> tuple:
    """The finite engine's run rooted at every method of ``refs``, their
    bindings seeded into one store pair, and the flow facts it built."""
    store, taint = Store(), TaintStore()
    for ref in refs:
        seed_entry_bindings(program, ref, store, taint)
    shared = reach.FiniteShared()
    return analyze(program, tuple(refs), store, taint,
                   AnalysisConfig(mode="finite", k=k), summaries,
                   shared), shared


def test_throw_resteps_on_catcher_growth_reach_the_every_throw_fixpoint(
        bundles_dir, tmp_path, monkeypatch):
    """Re-stepping a throw only when the frames that catch there grow
    reaches the fixpoint that re-stepping every throw on every growth of
    the flow facts reaches: the same nodes, edges, store pair and facts."""
    monkeypatch.syspath_prepend(str(BENCH))
    import synth

    cases = []  # (label, program, root methods, k, summaries)
    for name in BUNDLE_NAMES:
        bundle = load_bundle(bundles_dir / name)
        refs = [ep.method_ref for unit in eps.discover_entry_points(
            bundle, bundle.program) for ep in unit.entry_points]
        cases += [(f"{name} k={k}", bundle.program, refs, k,
                   bundle.summaries) for k in (0, 1, 2)]
    sources = [src for src, _o, _r in MICRO_PROGRAMS.values()]
    sources += list(STRICT_PROGRAMS.values())
    for i, src in enumerate(s for s in sources if "(throw " in s):
        cases += [(f"micro {i} k={k}", parse_program(src), [RUN], k, TABLE)
                  for k in (0, 1)]
    for seed in (1, 2):
        bundle = load_bundle(synth.generate(
            synth.Shape.parse("2x4x3x2"), seed).write(tmp_path / str(seed)))
        refs = [ep.method_ref for unit in eps.discover_entry_points(
            bundle, bundle.program) for ep in unit.entry_points]
        cases.append((f"synth seed {seed}", bundle.program, refs, 1,
                      bundle.summaries))

    def fixpoints():
        return [_finite_fixpoint(program, refs, k, summaries)
                for _label, program, refs, k, summaries in cases]

    def throw_steps(program, res):
        return sum(n for s, n in res.visit_counts.items()
                   if isinstance(program.code[s.pos].stmt, Throw))

    precise = fixpoints()
    growth = reach._FiniteEngine._on_shared_growth

    def every_throw(engine, states):
        growth(engine, [*states, *engine._throws])

    monkeypatch.setattr(reach._FiniteEngine, "_on_shared_growth", every_throw)
    every = fixpoints()
    for (label, *_), (res, shared), (want, want_shared) in zip(
            cases, precise, every):
        assert set(res.dsg.nodes) == set(want.dsg.nodes), label
        assert set(res.dsg.edges) == set(want.dsg.edges), label
        assert (canonical_text(res.final_store)
                == canonical_text(want.final_store)), label
        assert (canonical_text(res.final_taint)
                == canonical_text(want.final_taint)), label
        assert shared.call_edges == want_shared.call_edges, label
        assert shared.handler_records == want_shared.handler_records, label
    assert sum(throw_steps(c[1], r) for c, (r, _s) in zip(cases, precise)) \
        < sum(throw_steps(c[1], r) for c, (r, _s) in zip(cases, every))


def test_adjacency_is_sorted_once_and_kept_until_the_node_grows():
    """A graph refuses an edge it holds. ``out_edges`` sorts a node's
    ``SUMMARY`` edges after its other edges, by target, and sorts again
    only once the node has gained an edge. ``edges`` holds no ``SUMMARY``
    edge, and ``epsilon_summaries`` is exactly the (source, target) pairs
    of the ``SUMMARY`` edges."""
    m = MethodRef("Main", "run", ())
    fp = frame_pointer_zero(m)
    a, b, c = (ControlState(StmtPos(m, i), fp) for i in range(3))
    frame = FunFrame(fp, StmtPos(m, 0, at_move=True))
    dsg = DyckStateGraph()
    ia, ib, ic = map(dsg.add_node, (a, b, c))
    assert dsg.add_node(b) == ib and dsg.states == [a, b, c]
    assert dsg.add_edge(ia, Edge(a, SUMMARY, None, c), ic)
    assert dsg.add_edge(ia, Edge(a, NOOP, None, c), ic)
    assert not dsg.add_edge(ia, Edge(a, NOOP, None, c), ic)
    first = dsg.out_edges(a)
    assert dsg.out_edges(a) is first
    assert first == [Edge(a, NOOP, None, c), Edge(a, SUMMARY, None, c)]
    assert not dsg.add_edge(ia, Edge(a, SUMMARY, None, c), ic)
    assert dsg.out_edges(a) is first
    assert dsg.add_edge(ia, Edge(a, SUMMARY, None, b), ib)
    assert dsg.add_edge(ia, Edge(a, PUSH, frame, b), ib)
    second = dsg.out_edges(a)
    assert second == [Edge(a, NOOP, None, c), Edge(a, PUSH, frame, b),
                      Edge(a, SUMMARY, None, b), Edge(a, SUMMARY, None, c)]
    assert dsg.add_edge(ib, Edge(b, POP, frame, c), ic)
    assert dsg.out_edges(a) is second
    assert dsg.out_edges(c) == []
    assert dsg.edges_from(a) == {Edge(a, SUMMARY, None, c): ic,
                                 Edge(a, NOOP, None, c): ic,
                                 Edge(a, SUMMARY, None, b): ib,
                                 Edge(a, PUSH, frame, b): ib}
    assert list(dsg.edges) == [Edge(a, NOOP, None, c),
                               Edge(a, PUSH, frame, b),
                               Edge(b, POP, frame, c)]
    assert dsg.epsilon_summaries == {(a, c), (a, b)}
