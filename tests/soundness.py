"""Trace-containment check: concrete runs against the pushdown result."""

from pdcfa.concrete import (
    ConcreteRun,
    abstract_addr,
    abstract_fp,
    value_covered,
)
from pdcfa.ir import MethodRef, Program
from pdcfa.machine import AllocPolicy, Store, seed_entry_bindings
from pdcfa.reach import AnalysisConfig, AnalysisResult, ControlState, analyze
from pdcfa.taint import SummaryTable, TaintStore


def describe(state: ControlState) -> str:
    """A control state as failure messages name it."""
    move = "+move" if state.pos.at_move else ""
    return (f"{state.pos.method.sig()}@{state.pos.index}{move} "
            f"{state.fp.canonical()}")


def analyze_seeded(program: Program, entry: MethodRef, cfg: AnalysisConfig,
                   summaries: SummaryTable | None = None) -> AnalysisResult:
    store, taint = Store(), TaintStore()
    seed_entry_bindings(program, entry, store, taint)
    return analyze(program, (entry,), store, taint, cfg,
                   summaries or SummaryTable([]))


def check_containment(program: Program, run: ConcreteRun,
                      result: AnalysisResult, policy: AllocPolicy) -> list:
    """Every concrete state must have an abstract control state at the same
    statement position, and every concrete binding must be covered by the
    global abstract store, each abstracted under ``policy``, the one the
    run was made with. Returns a list of human-readable violations."""
    problems = []
    for i, state in enumerate(run.states):
        acs = ControlState(state.pos, abstract_fp(run, state.fpid, policy))
        if acs not in result.dsg.nodes:
            problems.append(f"state {i}: missing control state "
                            f"{describe(acs)}")
        for addr, val in state.store.items():
            aaddr = abstract_addr(run, addr, policy)
            if not value_covered(result.final_store.lookup(aaddr), run, val,
                                 policy):
                problems.append(
                    f"state {i}: {aaddr.canonical()} lacks abstraction of "
                    f"{val!r}")
        for addr, taints in state.taint.items():
            if not taints:
                continue
            aaddr = abstract_addr(run, addr, policy)
            missing = taints - result.final_taint.lookup(aaddr)
            if missing:
                problems.append(
                    f"state {i}: {aaddr.canonical()} lacks taint {missing}")
    return problems

