"""Vectorized numpy processor-sharing solver (the default backend).

Same model as the reference backend — every OST is an egalitarian
processor-sharing server whose ``n`` active streams (plus background)
each progress at ``bandwidth / (streams * seek_penalty(streams))`` — but
solved without per-byte Python dict churn, by one event model for every
batch: an event loop in *virtual service time*.  The cumulative
per-stream service ``S(t)`` is monotone, so a request arriving at ``a``
with ``b`` bytes completes exactly when ``S`` reaches ``S(a) + b``.
Keeping those thresholds replaces the reference backend's scan of every
active stream per event, with no remaining-bytes bookkeeping.

Every batch is grouped into per-OST lanes by
:meth:`~repro.engine.requests.RequestBatch.lanes`, whether its requests
arrive at once (dedicated-core flushes, scheduling waves) or staggered
(the file-per-process create storm).  A batch that averages at least
:data:`LOCKSTEP_MIN_WIDTH` requests per pass runs in *lockstep*: each
numpy pass advances every OST lane by one event, with a FIFO pointer for
equal sizes and a row-wise min over a padded ``(lanes, depth)``
threshold matrix for mixed sizes.  Narrower batches run a min-heap loop
per lane, O(k log k) per OST, that reads its rates from one per-batch
table of the same formula.  All three apply the same arithmetic in the
same order, so their results are bit-identical.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..util import FloatArray
from .machines import Machine, PENALTY_CAP
from .requests import LaneOrder, RequestBatch

__all__ = ["solve_vectorized", "LOCKSTEP_MIN_WIDTH"]

#: Minimum average number of requests per pass before a batch is solved
#: in lockstep (one event per OST lane per numpy pass) instead of by the
#: scalar per-lane heap loop.  Lockstep needs up to two passes per request
#: of the deepest lane, so the gate is ``n >= width * depth``: a lane
#: count alone would send one deep lane plus many shallow ones into
#: hundreds of near-empty passes.
LOCKSTEP_MIN_WIDTH = 128


def solve_vectorized(
    machine: Machine,
    batch: RequestBatch,
    background: FloatArray | None,
    large_writes: bool,
) -> FloatArray:
    """Completion time of every request in ``batch``, in batch order."""
    n = len(batch)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if background is not None:
        bg_per_ost = np.asarray(background, dtype=np.float64)
    else:
        bg_per_ost = np.zeros(machine.ost_count, dtype=np.float64)
    bw = machine.ost_bandwidth
    slope = (
        machine.large_write_seek_penalty
        if large_writes
        else machine.small_write_seek_penalty
    )
    lanes = batch.lanes(machine.ost_count)
    out = np.empty(n, dtype=np.float64)
    bg_per_lane = bg_per_ost[lanes.ost]
    lengths = lanes.ends - lanes.starts
    depth = int(lengths.max())
    if n >= LOCKSTEP_MIN_WIDTH * depth:
        if np.all(lanes.nbytes == lanes.nbytes[0]):
            # Equal shares mean equal sizes complete in arrival order.
            _solve_lockstep_fifo(bw, slope, bg_per_lane, lanes, out)
        else:
            _solve_lockstep_heap(bw, slope, bg_per_lane, lanes, depth, out)
        return out

    # One rate per (lane, active count 0..lane length): entry ``k`` of a
    # lane's slice is the per-stream rate with ``k`` requests active.  Count
    # 0 is never read; it holds the one-stream rate, not a division by zero.
    table_start = lanes.starts + np.arange(lengths.size)
    active = np.arange(n + lengths.size) - np.repeat(table_start, lengths + 1)
    streams = np.maximum(active, 1) + np.repeat(bg_per_lane, lengths + 1)
    rates = _per_stream_rate(bw, slope, streams).tolist()
    arrivals_sorted = lanes.arrival.tolist()
    sizes_sorted = lanes.nbytes.tolist()
    positions = lanes.order.tolist()
    for first, start, end in zip(
        table_start.tolist(), lanes.starts.tolist(), lanes.ends.tolist(), strict=True
    ):
        _solve_one_ost(
            rates[first : first + end - start + 1],
            arrivals_sorted,
            sizes_sorted,
            positions,
            start,
            end,
            out,
        )
    return out


def _per_stream_rate(bw: float, slope: float, streams: FloatArray) -> FloatArray:
    """Rate of one stream when an OST serves ``streams`` of them (vectorized)."""
    penalty = np.minimum(1.0 + slope * np.maximum(streams - 1.0, 0.0), PENALTY_CAP)
    return bw / (streams * penalty)


def _solve_lockstep_fifo(
    bw: float,
    slope: float,
    bg_per_lane: FloatArray,
    lanes: LaneOrder,
    out: FloatArray,
) -> None:
    """Lockstep FIFO sweep over every lane of an equal-size batch.

    Every lane's scalar loop state (wall clock, cumulative service,
    arrival/completion cursors) is one vector element and each pass
    advances every unfinished lane by exactly one event — an arrival or a
    completion, after an idle jump if the lane is empty — with
    :func:`_solve_one_ost`'s arithmetic applied element-wise, so results
    stay bit-identical to scalar solving.  Equal sizes complete in arrival
    order, so the oldest pending request is always next.  Lanes leave the
    vectors as soon as they finish.
    """
    arr, positions = lanes.arrival, lanes.order
    size = float(lanes.nbytes[0])
    n = arr.size
    head = lanes.starts.copy()  # oldest pending request per lane
    nxt = head.copy()  # next arrival per lane
    ends = lanes.ends
    bg = bg_per_lane
    t = np.zeros(head.size)  # wall clock per lane
    service = np.zeros(head.size)  # cumulative per-stream service per lane
    thresholds = np.empty(n)  # service level at which a request completes
    while head.size:
        idle = np.flatnonzero(head == nxt)
        if idle.size:
            # Idle lane: jump to the next arrival; no service accrues.
            k = nxt[idle]
            t[idle] = np.maximum(t[idle], arr[k])
            thresholds[k] = service[idle] + size
            nxt[idle] += 1
        rate = _per_stream_rate(bw, slope, (nxt - head) + bg)
        threshold = thresholds[head]
        t_complete = t + (threshold - service) / rate
        has_next = nxt < ends
        arr_next = np.where(has_next, arr[np.minimum(nxt, n - 1)], np.inf)
        arrive = has_next & (arr_next <= t_complete)
        service = np.where(arrive, service + rate * (arr_next - t), threshold)
        t = np.where(arrive, arr_next, t_complete)
        a = np.flatnonzero(arrive)
        thresholds[nxt[a]] = service[a] + size
        nxt[a] += 1
        d = np.flatnonzero(~arrive)
        out[positions[head[d]]] = t_complete[d]
        head[d] += 1
        finished = head == ends
        if finished.any():
            keep = np.flatnonzero(~finished)
            head, nxt, ends, bg = head[keep], nxt[keep], ends[keep], bg[keep]
            t, service = t[keep], service[keep]


def _solve_lockstep_heap(
    bw: float,
    slope: float,
    bg_per_lane: FloatArray,
    lanes: LaneOrder,
    depth: int,
    out: FloatArray,
) -> None:
    """Lockstep heap sweep over every lane of a mixed-size batch.

    The mixed-size counterpart of :func:`_solve_lockstep_fifo`, with the
    same per-lane state and pass structure.  A lane's pending completion
    thresholds sit in one row of a padded ``(lanes, depth)`` matrix
    (``inf`` marks a free slot) instead of a heap.  A request's slot is
    its arrival rank within the lane, and the row-wise ``argmin`` pops
    the first of equal minima, where the heap pops the least batch
    position.  No value depends on which of two equal thresholds pops
    first: the first completes at ``t_c`` and sets ``service`` to the
    threshold, so the other completes at ``t_c + 0.0 / rate == t_c``,
    and an arrival at exactly ``t_c`` accrues ``rate * 0.0``.
    """
    arr, nbytes = lanes.arrival, lanes.nbytes
    n = arr.size
    base = lanes.starts  # request ``k`` of a lane sits in column ``k - base``
    head = base.copy()  # advances once per completion
    nxt = base.copy()  # next arrival per lane
    ends = lanes.ends
    bg = bg_per_lane
    t = np.zeros(base.size)  # wall clock per lane
    service = np.zeros(base.size)  # cumulative per-stream service per lane
    thresholds = np.full((base.size, depth), np.inf)  # pending, by slot
    while head.size:
        idle = np.flatnonzero(head == nxt)
        if idle.size:
            # Idle lane: jump to the next arrival; no service accrues.
            k = nxt[idle]
            t[idle] = np.maximum(t[idle], arr[k])
            thresholds[idle, k - base[idle]] = service[idle] + nbytes[k]
            nxt[idle] += 1
        rate = _per_stream_rate(bw, slope, (nxt - head) + bg)
        first = thresholds.argmin(axis=1)
        threshold = thresholds[np.arange(head.size), first]
        t_complete = t + (threshold - service) / rate
        has_next = nxt < ends
        arr_next = np.where(has_next, arr[np.minimum(nxt, n - 1)], np.inf)
        arrive = has_next & (arr_next <= t_complete)
        service = np.where(arrive, service + rate * (arr_next - t), threshold)
        t = np.where(arrive, arr_next, t_complete)
        a = np.flatnonzero(arrive)
        k = nxt[a]
        thresholds[a, k - base[a]] = service[a] + nbytes[k]
        nxt[a] += 1
        d = np.flatnonzero(~arrive)
        thresholds[d, first[d]] = np.inf
        out[lanes.order[base[d] + first[d]]] = t_complete[d]
        head[d] += 1
        finished = head == ends
        if finished.any():
            keep = np.flatnonzero(~finished)
            base, head, nxt, ends, bg = base[keep], head[keep], nxt[keep], ends[keep], bg[keep]
            t, service, thresholds = t[keep], service[keep], thresholds[keep]


def _solve_one_ost(
    rates: list[float],
    arrivals: list[float],
    sizes: list[float],
    positions: list[int],
    start: int,
    end: int,
    out: FloatArray,
) -> None:
    """Virtual-service-time sweep of one OST's arrival-sorted requests.

    ``rates[k]`` is the per-stream rate while ``k`` requests are active.
    """
    push, pop = heapq.heappush, heapq.heappop
    heap: list[tuple[float, int]] = []  # (service threshold, output position)
    t = 0.0  # wall-clock time
    service = 0.0  # cumulative per-stream service S(t)
    i = start
    while i < end or heap:
        if not heap:
            # Idle OST: jump to the next arrival; no service accrues.
            if arrivals[i] > t:
                t = arrivals[i]
            push(heap, (service + sizes[i], positions[i]))
            i += 1
            continue
        rate = rates[len(heap)]
        threshold, pos = heap[0]
        t_complete = t + (threshold - service) / rate
        if i < end and arrivals[i] <= t_complete:
            service += rate * (arrivals[i] - t)
            t = arrivals[i]
            push(heap, (service + sizes[i], positions[i]))
            i += 1
        else:
            service = threshold
            t = t_complete
            pop(heap)
            out[pos] = t
