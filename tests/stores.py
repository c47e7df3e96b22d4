"""Test helpers over the value and taint stores: a store's canonical text,
a pointwise join of one store into another, and every taint category a
taint store holds."""


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
