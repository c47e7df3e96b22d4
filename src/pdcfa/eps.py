"""Entry-point saturation: cover all orderings of asynchronous entry points.

Saturation needs the least store pair that every entry point's run leaves
unchanged. One app-wide fixpoint run finds it: every entry's bindings are
seeded into one store pair, and one engine run has every entry's initial
state as a root (a global store, as in Van Horn and Might, "Abstracting
Abstract Machines", ICFP 2010). That fixpoint depends on no schedule, so
the saturated store models every interleaving of entry points without
enumerating orderings. Then each entry point gets one reporting run, in
declared order, that replays the fixpoint run: it shares the saturated pair
and builds its own graph, but reads each worklist item's edges from the
fixpoint run's table of last steps instead of stepping the machine. A
reporting run that reaches an item the table lacks is an internal error.
Findings name the entry point that triggers them (``Unit.label``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import machine, reach
from .ir import MethodRef, Program
from .machine import Store
from .taint import SummaryTable, TaintStore, TriggerContext

UNIT_KINDS = ("activity", "service", "receiver", "provider", "background",
              "other")
ENTRY_CATEGORIES = ("lifecycle-callback", "async-operation", "ui-handler")
REGISTRATION_SOURCES = ("manifest", "layout")


class UnknownMethod(Exception):
    pass


class EmptyUnit(Exception):
    pass


@dataclass(frozen=True)
class EntryPoint:
    method_ref: MethodRef
    category: str
    registration_source: str


@dataclass(frozen=True)
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


@dataclass
class SaturationTrace:
    results: list  # reporting-run AnalysisResults, in declared entry order
    # 2 when the fixpoint run grew the seeded store pair, 1 when it did not
    global_rounds: int
    complete: bool = True
    limit_reason: str | None = None


def discover_entry_points(bundle, program: Program) -> list:
    """Units and entry points exactly as the bundle manifest declares them.

    The manifest stands in for layout/bytecode scanning; declarations are
    validated against the parsed program. Entry points of one unit may share
    a method name, in different classes, but not repeat a method.
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
            category = e.get("category", "ui-handler")
            source = e.get("registrationSource", "manifest")
            if category not in ENTRY_CATEGORIES:
                raise ValueError(f"unknown entry category {category!r}")
            if source not in REGISTRATION_SOURCES:
                raise ValueError(f"unknown registration source {source!r}")
            eps.append(EntryPoint(ref, category, source))
        if not eps:
            raise EmptyUnit(f"unit {u['name']} declares no entry points")
        kind = u.get("kind", "other")
        if kind not in UNIT_KINDS:
            raise ValueError(f"unknown unit kind {kind!r}")
        units.append(Unit(u["name"], kind, tuple(eps)))
    names = [u.name for u in units]
    if len(set(names)) != len(names):
        raise ValueError("unit names must be unique")
    return units


def saturate_app(program: Program, units, cfg: reach.AnalysisConfig,
                 summaries: SummaryTable | None = None,
                 init_store: Store | None = None,
                 init_taint: TaintStore | None = None,
                 budget: reach.Budget | None = None) -> tuple:
    """One app-wide fixpoint run, then one reporting run per entry point.

    Returns (store, taint, trace): the saturated store pair, and each entry
    point's reporting-run result, in declared order. Optional seeds support
    re-running saturation from its own output (a fixpoint check).

    ``cfg.max_seconds`` and ``cfg.max_states`` bound the whole saturation:
    every engine run shares one deadline and one running count of the
    states built, and the first run to pass either ends saturation with
    ``complete=False``; a fixpoint run that does so leaves no entry results.
    A caller that passes its own ``budget`` (made before parsing, say)
    bounds its earlier work with the same deadline.
    """
    if not units:
        raise EmptyUnit("no units declared")
    summaries = summaries or SummaryTable([])
    store = init_store.copy() if init_store is not None else Store()
    taint = init_taint.copy() if init_taint is not None else TaintStore()
    shared = reach.FiniteShared() if cfg.mode == reach.FINITE else None
    if budget is None:
        budget = reach.Budget(cfg)  # bounds the whole saturation, not one run
    entries = [(unit, ep) for unit in units for ep in unit.entry_points]
    for _unit, ep in entries:
        machine.seed_entry_bindings(program, ep.method_ref, store, taint)
    seeded = (store.fingerprint(), taint.fingerprint())
    fixpoint = reach.analyze(program,
                             tuple(ep.method_ref for _unit, ep in entries),
                             store, taint, cfg, summaries, shared, budget)
    store, taint = fixpoint.final_store, fixpoint.final_taint
    rounds = 1 if (store.fingerprint(), taint.fingerprint()) == seeded else 2
    if not fixpoint.complete:
        return store, taint, SaturationTrace(
            [], rounds, complete=False, limit_reason=fixpoint.limit_reason)

    results: list = []
    for unit, ep in entries:
        result = reach.analyze(program, ep.method_ref, store, taint, cfg,
                               summaries, shared, budget, fixpoint)
        result.trigger = TriggerContext(unit.name, unit.label(ep))
        results.append(result)
        if not result.complete:
            return store, taint, SaturationTrace(
                results, rounds, complete=False,
                limit_reason=result.limit_reason)
    return store, taint, SaturationTrace(results, rounds)
