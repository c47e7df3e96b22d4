"""Least-permissions analysis: requested vs. reachable permission use."""

from __future__ import annotations

from .ir import record


@record
class PermissionReport:
    requested: frozenset
    reached: frozenset
    over_privileged: frozenset  # requested but never reached
    missing: frozenset  # reached but never requested
    evidence: dict  # permission -> tuple of (ControlState, line)
    lower_bound: bool = False  # analysis hit a limit; reached is partial


def collect_permissions(trace) -> list:
    """Permissions attached to the summary applications of a saturation
    (``eps.SaturationTrace``), paired with the applying control state: the
    applications of its fixpoint run in the part of a trigger's root
    (``reach.RootMasks``), none if it has no triggers. They are grouped by
    permission, each state once with its line, in the run's application
    (state) order; only the permission names are sorted."""
    if not trace.triggers:
        return []
    masks = trace.fixpoint.masks
    weight = masks.weigh(entry for _trigger, entry in trace.triggers)
    lines: dict = {}  # permission -> {state: line}
    for app in trace.fixpoint.applications:
        if app.permissions and weight(masks.mask(app.state)):
            for perm in app.permissions:
                lines.setdefault(perm, {}).setdefault(app.state, app.line)
    return [(perm, state, line) for perm in sorted(lines)
            for state, line in lines[perm].items()]


def build_permission_report(requested, collected,
                            lower_bound: bool = False) -> PermissionReport:
    requested = frozenset(requested)
    evidence: dict = {}
    for perm, state, line in collected:
        evidence.setdefault(perm, []).append((state, line))
    reached = frozenset(evidence)
    return PermissionReport(
        requested=requested, reached=reached,
        over_privileged=requested - reached, missing=reached - requested,
        evidence={p: tuple(sites) for p, sites in sorted(evidence.items())},
        lower_bound=lower_bound)
