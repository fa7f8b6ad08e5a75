"""The seed implementation of the processor-sharing OST solver.

This is the seed's original per-OST event loop, kept verbatim as the
``reference`` backend: it is the ground truth the vectorized backend is
cross-validated against (``tests/test_engine.py``) and the baseline the
perf-guard test measures speedups from.  Cost is O(requests-per-OST²)
with per-byte Python dict churn — correct, slow.
"""

from __future__ import annotations

import math

import numpy as np

from ..util import FloatArray
from .machines import Machine
from .requests import RequestBatch, WriteRequest

__all__ = ["solve_reference"]


def solve_reference(
    machine: Machine,
    batch: RequestBatch,
    background: FloatArray | None,
    large_writes: bool,
) -> FloatArray:
    """Completion time of every request in ``batch``, in batch order."""
    # The event loop keys its bookkeeping by tag, so feed it the batch
    # position as the tag — positions are unique even when caller tags
    # are not, and the original loop is preserved untouched below.
    per_ost: dict[int, list[WriteRequest]] = {}
    for pos in range(len(batch)):
        req = WriteRequest(
            arrival=float(batch.arrival[pos]),
            ost=int(batch.ost[pos]) % machine.ost_count,
            nbytes=float(batch.nbytes[pos]),
            tag=pos,
        )
        per_ost.setdefault(req.ost, []).append(req)

    out = np.empty(len(batch), dtype=np.float64)
    for ost, reqs in per_ost.items():
        bg = float(background[ost]) if background is not None else 0.0
        done = _simulate_one_ost(machine, reqs, bg, large_writes)
        for pos, t in done.items():
            out[pos] = t
    return out


def _simulate_one_ost(
    machine: Machine,
    reqs: list[WriteRequest],
    background: float,
    large_writes: bool,
) -> dict[int, float]:
    reqs = sorted(reqs, key=lambda r: (r.arrival, r.tag))
    bw = machine.ost_bandwidth
    done: dict[int, float] = {}
    active: dict[int, float] = {}  # tag -> remaining bytes
    i = 0
    t = 0.0
    while i < len(reqs) or active:
        if not active:
            t = max(t, reqs[i].arrival)
        while i < len(reqs) and reqs[i].arrival <= t + 1e-12:
            active[reqs[i].tag] = reqs[i].nbytes
            i += 1
        streams = len(active) + background
        rate = bw / (streams * machine.seek_penalty(streams, large_writes=large_writes))
        dt_complete = min(active.values()) / rate
        dt_arrival = reqs[i].arrival - t if i < len(reqs) else math.inf
        dt = min(dt_complete, dt_arrival)
        t += dt
        finished = []
        for tag in active:
            active[tag] -= rate * dt
            if active[tag] <= 1e-6:
                finished.append(tag)
        for tag in finished:
            done[tag] = t
            del active[tag]
    return done
