"""A fixed piece of pure-Python work that measures how fast the machine runs.

The benchmark's hosts change speed by up to 1.8x for seconds to minutes, so
wall times of separate runs disagree by more than the effects worth
measuring. ``calibrate()`` is timed next to every timed sample, and each
sample is scaled by ``reference / calibration`` (see ``run.py``).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Pos:
    method: str
    index: int


@dataclass(frozen=True)
class _State:
    pos: _Pos
    context: tuple


def calibrate() -> float:
    """Seconds for a fixed amount of interpreter work that does not touch
    pdcfa: hashing nested frozen dataclasses, dict updates and a sort on
    tuple keys, the operations the analyzer spends its time on. Timed
    between samples, it measures how fast this machine runs Python just
    then. The cyclic collector is off meanwhile: a collection would time
    the heap the analyzer left behind, not the machine.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        edges: list = []
        for n in range(6000):
            k = n % 500  # a small working set: peak RSS stays the analyzer's
            s = _State(_Pos(f"m{k % 37}", k % 53),
                       (_Pos("c", k % 7), _Pos("d", k % 5)))
            seen.setdefault(s, len(seen))
            edges.append((s, _State(_Pos(s.pos.method, s.pos.index + 1),
                                    s.context)))
            if len(edges) == 500:
                edges.sort(key=lambda e: (e[0].pos.method, e[0].pos.index,
                                          e[1].pos.index))
                edges.clear()
        return time.perf_counter() - t0
    finally:
        gc.enable()
