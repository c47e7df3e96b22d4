"""Test helpers over the value and taint stores: a store's canonical text,
a pointwise join of one store into another, every taint category a taint
store holds, and an atomic expression's values and taint in a store pair.
"""

from pdcfa.machine import compile_atomic


def canonical_text(store) -> str:
    """One line per address, in address order: ``addr -> {values}``."""
    lines = []
    for addr, vals in sorted(store.items(), key=lambda kv: kv[0].sort_key()):
        text = ",".join(sorted(v.canonical() for v in vals))
        lines.append(f"{addr.canonical()} -> {{{text}}}")
    return "\n".join(lines) + "\n"


def join_store(store, other) -> bool:
    """Join every address of ``other`` into ``store``; whether it grew."""
    grew = False
    for addr, values in other.items():
        grew |= store.join(addr, values)
    return grew


def all_categories(taint_store) -> frozenset:
    out: set = set()
    for _addr, taints in taint_store.items():
        out |= taints
    return frozenset(out)


def eval_atomic(program, ae, fp, store) -> frozenset:
    """An atomic expression's value set in frame ``fp`` of ``store``, from
    its compiled pair (``machine.compile_atomic``); unbound names are
    empty."""
    return compile_atomic(program, ae)[0](fp, store)


def eval_atomic_taint(program, ae, fp, taint_store) -> frozenset:
    """The taint an atomic expression carries: the union over the registers
    it reads."""
    return compile_atomic(program, ae)[1](fp, taint_store)
