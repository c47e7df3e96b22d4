"""Findings and permission evidence deduplicated after the product, as
references for the grouped ``taint.extract_findings`` and
``permissions.collect_permissions``.

``product_findings`` walks every (trigger, sink application, sink hit,
source) pass, builds a (trigger, category, source position, sink position)
key on each and keeps the first finding per key; ``seen_permissions``
keeps the first (permission, state) pair in application order and sorts
them all. Both return what the grouped functions must return, field by
field and in the same order.
"""

from pdcfa.taint import TaintFinding, _bits, _witness


def product_findings(trace) -> list:
    run, triggers = trace.fixpoint, trace.triggers
    if not triggers:
        return []
    masks = run.masks
    roots = [masks.roots[entry] for _trigger, entry in triggers]
    first: dict = {}  # bit -> the first trigger of its root
    for i, (_root, bit) in enumerate(roots):
        first.setdefault(bit, i)
    declared = sum(1 << bit for bit in first)
    sources = []  # (category, state, line, owner's index in triggers)
    seen_sources = set()
    sinks: dict = {}  # bit -> the sink applications of its part, in order
    for app in run.applications:
        mask = masks.mask(app.state) & declared
        if app.source_categories and mask:
            owner = min(first[bit] for bit in _bits(mask))
            for cat in app.source_categories:
                if (cat, app.state) not in seen_sources:
                    seen_sources.add((cat, app.state))
                    sources.append((cat, app.state, app.line, owner))
        if app.sink_hits:
            for bit in _bits(mask):
                sinks.setdefault(bit, []).append(app)
    sources.sort(key=lambda s: (s[0].value, s[1].sort_key()))

    findings: dict = {}
    trees: dict = {}
    memo: dict = {}
    for i, (trigger, _entry) in enumerate(triggers):
        for app in sinks.get(roots[i][1], ()):
            sink_pos = app.state.pos.sort_key()
            for cat, kind in sorted(app.sink_hits,
                                    key=lambda h: (h[0].value, h[1])):
                for src_cat, src_state, src_line, owner in sources:
                    if src_cat is not cat:
                        continue
                    key = (trigger, cat.value, src_state.pos.sort_key(),
                           sink_pos)
                    if key in findings:
                        continue
                    findings[key] = TaintFinding(
                        category=cat, source_state=src_state,
                        source_line=src_line, sink_state=app.state,
                        sink_kind=kind, sink_line=app.line, trigger=trigger,
                        sink_permissions=app.permissions,
                        segments=_witness(run, roots, owner, src_state, i,
                                          app.state, trees, memo))
    return sorted(findings.values(), key=lambda f: f.sort_key())


def seen_permissions(trace) -> list:
    if not trace.triggers:
        return []
    masks = trace.fixpoint.masks
    weight = masks.weigh(entry for _trigger, entry in trace.triggers)
    seen = set()
    out = []
    for app in trace.fixpoint.applications:
        if not weight(masks.mask(app.state)):
            continue
        for perm in app.permissions:
            key = (perm, app.state)
            if key in seen:
                continue
            seen.add(key)
            out.append((perm, app.state, app.line))
    out.sort(key=lambda p: (p[0], p[1].sort_key()))
    return out
