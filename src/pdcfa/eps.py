"""Entry-point saturation: cover all orderings of asynchronous entry points.

Saturation needs the least store pair that every entry point's run leaves
unchanged. One app-wide fixpoint run finds it: every entry's bindings are
seeded into one store pair, and one engine run has every entry's initial
state as a root (a global store, as in Van Horn and Might, "Abstracting
Abstract Machines", ICFP 2010). That fixpoint depends on no schedule, so
the saturated store models every interleaving of entry points without
enumerating orderings. Each entry point, in declared order, is a trigger:
the reports read its part of the fixpoint run's graph, what a run from that
entry alone would build over the saturated pair, from the run's root masks
(``reach.RootMasks``) without stepping the machine. Findings name the
entry point that triggers them (``Unit.label``).
"""

from __future__ import annotations

import logging

from . import machine, reach
from .ir import MethodRef, Program, record
from .machine import Store
from .taint import SummaryTable, TaintStore, TriggerContext

log = logging.getLogger("pdcfa.eps")


class UnknownMethod(Exception):
    pass


class EmptyUnit(Exception):
    pass


@record
class EntryPoint:
    method_ref: MethodRef
    category: str
    registration_source: str


@record
class Unit:
    name: str
    kind: str
    entry_points: tuple

    def label(self, ep: EntryPoint) -> str:
        """``ep``'s name in reports: its method name, or its signature when
        another entry point of this unit shares that name."""
        name = ep.method_ref.method_name
        if sum(e.method_ref.method_name == name
               for e in self.entry_points) > 1:
            return ep.method_ref.sig()
        return name


@record(mutable=True)
class SaturationTrace:
    fixpoint: reach.AnalysisResult  # the app-wide run
    # (TriggerContext, entry method) per entry point, in declared order; none
    # if the run stopped at a limit
    triggers: list
    # 2 when the fixpoint run grew the seeded store pair, 1 when it did not
    global_rounds: int
    complete: bool  # the fixpoint run's, as is limit_reason
    limit_reason: str | None


def discover_entry_points(bundle, program: Program) -> list:
    """Units and entry points exactly as the bundle manifest declares them.

    The manifest stands in for layout/bytecode scanning; declarations are
    validated against the parsed program here, and the manifest's shape and
    enums already against ``schemas/manifest.schema.json``
    (``cli.check_manifest``). Entry points of one unit may share a method
    name, in different classes, but not repeat a method.
    """
    units = []
    for u in bundle.manifest["units"]:
        eps = []
        for e in u["entryPoints"]:
            ref = MethodRef(e["class"], e["method"],
                            tuple(e.get("paramTypes", [])))
            if ref not in program.methods:
                raise UnknownMethod(f"entry point {ref.sig()} not in program")
            if any(ep.method_ref == ref for ep in eps):
                raise ValueError(f"unit {u['name']} declares entry point "
                                 f"{ref.sig()} twice")
            eps.append(EntryPoint(ref, e.get("category", "ui-handler"),
                                  e.get("registrationSource", "manifest")))
        units.append(Unit(u["name"], u["kind"], tuple(eps)))
    names = [u.name for u in units]
    if len(set(names)) != len(names):
        raise ValueError("unit names must be unique")
    return units


def saturate_app(program: Program, units, cfg: reach.AnalysisConfig,
                 summaries: SummaryTable | None = None,
                 deadline: float | None = None) -> tuple:
    """One app-wide fixpoint run, each entry point a root, from an empty
    store pair seeded with every entry point's bindings.

    Returns (store, taint, trace): the saturated store pair, and the run
    with each entry point's trigger, in declared order.

    ``cfg.max_states`` and ``deadline`` (``cfg.deadline()``, made when the
    run starts, if None) bound the fixpoint run, as in ``reach.analyze``; a
    caller that makes the deadline earlier (before parsing, say) bounds its
    earlier work with it too. A fixpoint run that stops at either limit
    ends saturation incomplete, with no triggers: only a complete run has
    root masks to read an entry point's part from.
    """
    if not units:
        raise EmptyUnit("no units declared")
    store, taint = Store(), TaintStore()
    entries = [(unit, ep) for unit in units for ep in unit.entry_points]
    for _unit, ep in entries:
        machine.seed_entry_bindings(program, ep.method_ref, store, taint)
    seeded = (store.fingerprint(), taint.fingerprint())
    fixpoint = reach.analyze(program,
                             tuple(ep.method_ref for _unit, ep in entries),
                             store, taint, cfg, summaries, deadline=deadline)
    store, taint = fixpoint.final_store, fixpoint.final_taint
    rounds = 1 if (store.fingerprint(), taint.fingerprint()) == seeded else 2
    if log.isEnabledFor(logging.INFO):
        dsg = fixpoint.dsg
        log.info("fixpoint run: %d states, %d edges, %d epsilon summaries, "
                 "globalRounds %d", len(dsg.nodes), len(dsg.edges),
                 len(dsg.epsilon_summaries), rounds)
    trace = SaturationTrace(fixpoint, [], rounds, fixpoint.complete,
                            fixpoint.limit_reason)
    if not fixpoint.complete:
        return store, taint, trace
    trace.triggers = [(TriggerContext(unit.name, unit.label(ep)),
                       ep.method_ref) for unit, ep in entries]
    if log.isEnabledFor(logging.INFO):  # the parts' summed node counts
        weight = fixpoint.masks.weigh(e for _t, e in trace.triggers)
        log.info("views: %d, %d nodes", len(trace.triggers),
                 sum(map(weight, fixpoint.masks.node)))
    return store, taint, trace
