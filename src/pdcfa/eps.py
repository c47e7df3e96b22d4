"""Entry-point saturation: cover all orderings of asynchronous entry points.

Each declared entry point is analyzed with the widened store pair inherited
from the previous one. A sweep runs every entry point of every unit in
declared order; sweeps repeat until one adds nothing. The result is the least
fixpoint, which does not depend on the schedule, so the saturated store
models every interleaving of entry points without enumerating orderings.
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

    def label(self) -> str:
        return self.method_ref.method_name


@dataclass(frozen=True)
class Unit:
    name: str
    kind: str
    entry_points: tuple


@dataclass
class SaturationTrace:
    results: dict  # (unit name, entry label) -> last-sweep AnalysisResult
    global_rounds: int  # sweeps run, the last one adding nothing
    complete: bool = True
    limit_reason: str | None = None

    def final_results(self) -> list:
        return list(self.results.values())


def discover_entry_points(bundle, program: Program) -> list:
    """Units and entry points exactly as the bundle manifest declares them.

    The manifest stands in for layout/bytecode scanning; declarations are
    validated against the parsed program.
    """
    units = []
    for u in bundle.manifest["units"]:
        eps = []
        for e in u["entryPoints"]:
            ref = MethodRef(e["class"], e["method"],
                            tuple(e.get("paramTypes", [])))
            if ref not in program.methods:
                raise UnknownMethod(f"entry point {ref.sig()} not in program")
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
    """Sweep every entry point of every unit until a sweep adds nothing.

    Returns (store, taint, trace); the trace holds every entry point's
    last-sweep analysis result. Optional seeds support re-running
    saturation from its own output (a fixpoint check).

    ``cfg.max_seconds`` and ``cfg.max_states`` bound the whole saturation:
    every engine run shares one deadline and one running count of the
    states built, and the first run to pass either ends saturation with
    ``complete=False``. A caller that passes its own ``budget`` (made
    before parsing, say) bounds its earlier work with the same deadline.
    """
    if not units:
        raise EmptyUnit("no units declared")
    summaries = summaries or SummaryTable([])
    store = init_store.copy() if init_store is not None else Store()
    taint = init_taint.copy() if init_taint is not None else TaintStore()
    shared = reach.FiniteShared() if cfg.mode == reach.FINITE else None
    if budget is None:
        budget = reach.Budget(cfg)  # bounds the whole saturation, not one run

    def fingerprint():
        return (store.fingerprint(), taint.fingerprint(),
                shared.fingerprint() if shared is not None else 0)

    results: dict = {}
    sweeps = 0
    before = fingerprint()
    while True:
        sweeps += 1
        for unit in units:
            for ep in unit.entry_points:
                seeded, seeded_taint = store.copy(), taint.copy()
                machine.seed_entry_bindings(program, ep.method_ref, seeded,
                                            seeded_taint)
                result = reach.analyze(program, ep.method_ref, seeded,
                                       seeded_taint, cfg, summaries, shared,
                                       budget)
                result.trigger = TriggerContext(unit.name, ep.label())
                results[(unit.name, ep.label())] = result
                store, taint = result.final_store, result.final_taint
                if not result.complete:
                    return store, taint, SaturationTrace(
                        results, sweeps, complete=False,
                        limit_reason=result.limit_reason)
        after = fingerprint()
        if after == before:
            return store, taint, SaturationTrace(results, sweeps)
        before = after
