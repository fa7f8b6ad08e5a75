"""Vectorized numpy processor-sharing solver (the default backend).

Same model as the reference backend — every OST is an egalitarian
processor-sharing server whose ``n`` active streams (plus background)
each progress at ``bandwidth / (streams * seek_penalty(streams))`` — but
solved without per-byte Python dict churn:

* **Simultaneous arrivals** (dedicated-core flushes, scheduling waves):
  within an OST the stream with the least bytes finishes first, so the
  completion times are a cumulative sum over the size-sorted requests
  with a per-segment rate that only depends on how many streams remain.
  That cumsum is evaluated for *all OSTs at once* on a padded
  ``(osts, depth)`` matrix — one numpy pass for the whole batch.
* **Staggered arrivals** (the file-per-process create storm): an event
  loop in *virtual service time*.  The cumulative per-stream service
  ``S(t)`` is monotone, so a request arriving at ``a`` with ``b`` bytes
  completes exactly when ``S`` reaches ``S(a) + b``.  Keeping those
  thresholds replaces the reference backend's scan of every active
  stream per event, with no remaining-bytes bookkeeping.  A batch that
  averages at least :data:`LOCKSTEP_MIN_WIDTH` requests per pass runs in
  *lockstep*: each numpy pass advances every OST lane by one event, with
  a FIFO pointer for equal sizes and a row-wise min over a padded
  ``(lanes, depth)`` threshold matrix for mixed sizes.  Narrower batches
  run a min-heap loop per lane, O(k log k) per OST, that reads its rates
  from one per-batch table of the same formula.  Both apply the same
  arithmetic in the same order, so their results are bit-identical.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..util import FloatArray, IntArray
from .machines import Machine, PENALTY_CAP
from .requests import LaneOrder, RequestBatch

__all__ = ["solve_vectorized", "LOCKSTEP_MIN_WIDTH"]

#: Minimum average number of requests per pass before a staggered batch
#: is solved in lockstep (one event per OST lane per numpy pass) instead
#: of by the scalar per-lane heap loop.  Lockstep needs up to two passes
#: per request of the deepest lane, so the gate is ``n >= width * depth``:
#: a lane count alone would send one deep lane plus many shallow ones
#: into hundreds of near-empty passes.
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
    slope = (
        machine.large_write_seek_penalty
        if large_writes
        else machine.small_write_seek_penalty
    )
    arrival = batch.arrival
    if np.all(arrival == arrival[0]):
        ost = batch.ost % machine.ost_count
        return _solve_simultaneous(
            machine.ost_bandwidth, slope, ost, arrival[0], batch.nbytes, bg_per_ost
        )
    return _solve_staggered(
        machine.ost_bandwidth, slope, batch.lanes(machine.ost_count), bg_per_ost
    )


def _per_stream_rate(bw: float, slope: float, streams: FloatArray) -> FloatArray:
    """Rate of one stream when an OST serves ``streams`` of them (vectorized)."""
    penalty = np.minimum(1.0 + slope * np.maximum(streams - 1.0, 0.0), PENALTY_CAP)
    return bw / (streams * penalty)


def _solve_simultaneous(
    bw: float,
    slope: float,
    ost: IntArray,
    t0: float,
    nbytes: FloatArray,
    bg_per_ost: FloatArray,
) -> FloatArray:
    n = ost.size
    # A broadcast size ties every request of an OST: the stable OST sort is the lexsort order.
    order = np.argsort(ost, kind="stable") if nbytes.strides == (0,) else np.lexsort((nbytes, ost))
    # A stacked flush holds up to ~10^5 requests: free each temporary once consumed.
    ost_sorted = ost[order]
    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(ost_sorted[1:], ost_sorted[:-1], out=is_first[1:])
    group_start = np.flatnonzero(is_first)
    bg = bg_per_ost[ost_sorted[group_start], None]
    del ost_sorted, is_first
    counts = np.diff(group_start, append=n)

    groups = counts.size
    depth = int(counts.max())
    # Flat (group, slot) cell of every request in sorted order.
    cell = np.repeat(np.arange(groups) * depth - group_start, counts)
    cell += np.arange(n)
    sizes_padded = np.zeros(groups * depth, dtype=np.float64)
    sizes_padded[cell] = nbytes[0] if nbytes.strides == (0,) else nbytes[order]
    # Within a group the smallest remaining stream finishes first, so the
    # extra service every survivor needs between consecutive completions is
    # the difference of the size-sorted requests.
    steps = np.diff(sizes_padded.reshape(groups, depth), axis=1, prepend=0.0)
    del sizes_padded

    remaining = counts[:, None] - np.arange(depth)[None, :]
    valid = remaining >= 1
    streams = np.where(valid, remaining, 1.0)
    del remaining
    streams += bg
    steps /= _per_stream_rate(bw, slope, streams)
    del streams
    dt = np.where(valid, steps, 0.0)
    del steps, valid
    # Fold t0 into the first segment so the cumsum accumulates in the
    # exact order the scalar lane loops do (t0 + dt0) + dt1 + ...; the
    # simultaneous path is then bit-identical to per-lane event solving,
    # which solve_many's stacked solves rely on when cells with different
    # flush times share one batch.
    dt[:, 0] += float(t0)
    finish = np.cumsum(dt, axis=1).ravel()
    del dt

    out = np.empty(n, dtype=np.float64)
    out[order] = finish[cell]
    return out


def _solve_staggered(
    bw: float,
    slope: float,
    lanes: LaneOrder,
    bg_per_ost: FloatArray,
) -> FloatArray:
    n = lanes.order.size
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


def _solve_lockstep_fifo(
    bw: float,
    slope: float,
    bg_per_lane: FloatArray,
    lanes: LaneOrder,
    out: FloatArray,
) -> None:
    """Lockstep FIFO sweep over every lane of an equal-size staggered batch.

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
    """Lockstep heap sweep over every lane of a mixed-size staggered batch.

    The mixed-size counterpart of :func:`_solve_lockstep_fifo`, with the
    same per-lane state and pass structure.  A lane's pending completion
    thresholds sit in one row of a padded ``(lanes, depth)`` matrix
    (``inf`` marks a free slot) instead of a heap.  A request's slot is
    its rank by batch position within the lane, so the row-wise
    ``argmin`` — which returns the first of equal minima — picks the
    least ``(threshold, position)``, exactly the heap's order.
    """
    arr, nbytes = lanes.arrival, lanes.nbytes
    n = arr.size
    lane_of = np.repeat(np.arange(lanes.starts.size), lanes.ends - lanes.starts)
    by_position = np.argsort(lane_of * n + lanes.order, kind="stable")
    slot = np.empty(n, dtype=np.int64)
    slot[by_position] = np.arange(n) - lanes.starts[lane_of[by_position]]
    position = lanes.order[by_position]  # batch position of (lane, slot)

    base = lanes.starts  # start of each lane's slots in ``position``
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
            thresholds[idle, slot[k]] = service[idle] + nbytes[k]
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
        thresholds[a, slot[k]] = service[a] + nbytes[k]
        nxt[a] += 1
        d = np.flatnonzero(~arrive)
        thresholds[d, first[d]] = np.inf
        out[position[base[d] + first[d]]] = t_complete[d]
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
