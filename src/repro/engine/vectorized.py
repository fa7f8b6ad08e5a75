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
  run a min-heap loop per lane, O(k log k) per OST.  Both apply the same
  arithmetic in the same order, so their results are bit-identical.
* **Wide equal-size staggered batches** (stacked replications, see
  :mod:`repro.engine.batching`): when a batch spreads over many OST
  groups and all writes are the same size, the event loop gives way to
  an all-OSTs-at-once two-phase matrix solve.  In the checkpoint regime
  the writes far outlast the arrival window, so on each OST every
  request arrives before the first one completes: the *arrival phase*
  is then a padded-row cumsum of per-stream service (yielding each
  request's completion threshold) and the *completion phase* a second
  cumsum draining the queue — a handful of numpy passes over a
  ``(osts, depth)`` matrix instead of up to two per request of the
  deepest lane.  The regime assumption is checked exactly per OST (last
  arrival's accumulated service vs. the first completion threshold) and
  violating OSTs are re-solved by the lockstep FIFO sweep, so the fast
  path is an optimisation, never an approximation.
"""

from __future__ import annotations

import heapq

import numpy as np
import numpy.typing as npt

from ..util import FloatArray, IntArray
from .machines import Machine, PENALTY_CAP
from .requests import LaneOrder, RequestBatch

__all__ = ["solve_vectorized", "WIDE_MIN_GROUPS", "STORM_THRESHOLD_WRITES", "LOCKSTEP_MIN_WIDTH"]

#: Minimum OST-group count before the all-OSTs-at-once matrix solver for
#: equal-size staggered batches engages.  Stacked multi-replication
#: batches (``solve_many``) span thousands of virtual OSTs and amortise
#: the matrix setup; ordinary single-iteration solves take the staggered
#: lane solvers.
WIDE_MIN_GROUPS = 1024

#: The storm-regime validity bound of the wide two-phase solve, in units
#: of the shared write size: an OST lane qualifies exactly when the
#: per-stream service accumulated by its last arrival has not passed the
#: *first* request's completion threshold, which is one write size
#: (``0 + size``).  Both the fast-path check and the lockstep fallback's
#: lane selection read this single definition (:func:`_storm_regime`), so
#: the two sides of the boundary can never drift apart.
STORM_THRESHOLD_WRITES = 1.0

#: Minimum average number of requests per pass before a staggered batch
#: is solved in lockstep (one event per OST lane per numpy pass) instead
#: of by the scalar per-lane heap loop.  Lockstep needs up to two passes
#: per request of the deepest lane, so the gate is ``n >= width * depth``:
#: a lane count alone would send one deep lane plus many shallow ones
#: into hundreds of near-empty passes.
LOCKSTEP_MIN_WIDTH = 128


def _storm_regime(service_last: FloatArray, size: float) -> npt.NDArray[np.bool_]:
    """Which lanes satisfy the storm-regime assumption (exact check)."""
    return service_last <= STORM_THRESHOLD_WRITES * size


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
    ost = batch.ost % machine.ost_count
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
        return _solve_simultaneous(
            machine.ost_bandwidth, slope, ost, arrival[0], batch.nbytes, bg_per_ost
        )
    if (
        n >= WIDE_MIN_GROUPS
        and machine.ost_count >= WIDE_MIN_GROUPS
        and np.all(batch.nbytes == batch.nbytes[0])
    ):
        return _solve_wide_fifo(
            machine.ost_bandwidth, slope, ost, arrival, float(batch.nbytes[0]), bg_per_ost
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
    order = np.lexsort((nbytes, ost))
    ost_sorted = ost[order]
    sizes = nbytes[order]

    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(ost_sorted[1:], ost_sorted[:-1], out=is_first[1:])
    group_id = np.cumsum(is_first) - 1
    group_start = np.flatnonzero(is_first)
    counts = np.diff(np.append(group_start, n))
    pos = np.arange(n) - group_start[group_id]

    groups = counts.size
    depth = int(counts.max())
    sizes_padded = np.zeros((groups, depth), dtype=np.float64)
    sizes_padded[group_id, pos] = sizes
    # Within a group the smallest remaining stream finishes first, so the
    # extra service every survivor needs between consecutive completions is
    # the difference of the size-sorted requests.
    steps = np.diff(sizes_padded, axis=1, prepend=0.0)

    remaining = counts[:, None] - np.arange(depth)[None, :]
    valid = remaining >= 1
    streams = np.where(valid, remaining, 1.0) + bg_per_ost[ost_sorted[group_start], None]
    dt = np.where(valid, steps / _per_stream_rate(bw, slope, streams), 0.0)
    # Fold t0 into the first segment so the cumsum accumulates in the
    # exact order the scalar lane loops do (t0 + dt0) + dt1 + ...; the
    # simultaneous path is then bit-identical to per-lane event solving,
    # which solve_many's stacked solves rely on when cells with different
    # flush times share one batch.
    dt[:, 0] += float(t0)
    finish = np.cumsum(dt, axis=1)

    out = np.empty(n, dtype=np.float64)
    out[order] = finish[group_id, pos]
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
    depth = int((lanes.ends - lanes.starts).max())
    if n >= LOCKSTEP_MIN_WIDTH * depth:
        if np.all(lanes.nbytes == lanes.nbytes[0]):
            # Equal shares mean equal sizes complete in arrival order.
            _solve_lockstep_fifo(
                bw,
                slope,
                bg_per_lane,
                lanes.arrival,
                float(lanes.nbytes[0]),
                lanes.order,
                lanes.starts,
                lanes.ends,
                out,
            )
        else:
            _solve_lockstep_heap(bw, slope, bg_per_lane, lanes, depth, out)
        return out

    arrivals_sorted = lanes.arrival.tolist()
    sizes_sorted = lanes.nbytes.tolist()
    positions = lanes.order.tolist()
    lane_bg = bg_per_lane.tolist()
    for lane, (start, end) in enumerate(
        zip(lanes.starts.tolist(), lanes.ends.tolist(), strict=True)
    ):
        _solve_one_ost(
            bw,
            slope,
            lane_bg[lane],
            arrivals_sorted,
            sizes_sorted,
            positions,
            start,
            end,
            out,
        )
    return out


def _solve_wide_fifo(
    bw: float,
    slope: float,
    ost: IntArray,
    arrival: FloatArray,
    size: float,
    bg_per_ost: FloatArray,
) -> FloatArray:
    """All-OSTs-at-once solve of a wide equal-size staggered batch.

    In the checkpoint regime the equal-size writes far outlast the
    arrival window, so on each OST every request arrives before the
    first one completes.  The FIFO event loop then splits into two
    vectorised phases over a padded ``(osts, depth)`` matrix:

    * **arrival phase** — between consecutive arrivals ``j`` streams
      share the OST, so the cumulative per-stream service at each
      arrival is a row cumsum of ``rate(j + background) * gap``; adding
      the write size yields every request's completion threshold.
    * **completion phase** — the queue drains in FIFO order with the
      stream count stepping down, a second row cumsum.

    The regime assumption is *checked exactly* per OST — the service
    accumulated by the last arrival must not exceed the first request's
    threshold — and violating OSTs are re-solved by
    :func:`_solve_lockstep_fifo`, so this path is bit-identical to
    per-OST solving either way.
    """
    n = ost.size
    # Group by OST (stable radix sort, on the narrowest dtype that holds
    # the ids — fewer radix passes), then order arrivals within each
    # group via one row-wise argsort of a padded matrix; both sorts are
    # stable, so the combined order equals lexsort((arrival, ost)).
    if bg_per_ost.size <= np.iinfo(np.uint16).max:
        key = ost.astype(np.uint16)
    elif bg_per_ost.size <= np.iinfo(np.uint32).max:
        key = ost.astype(np.uint32)
    else:
        key = ost
    perm = np.argsort(key, kind="stable")
    ost_sorted = ost[perm]
    is_first = np.empty(n, dtype=bool)
    is_first[0] = True
    np.not_equal(ost_sorted[1:], ost_sorted[:-1], out=is_first[1:])
    group_id = np.cumsum(is_first) - 1
    starts = np.flatnonzero(is_first)
    counts = np.diff(np.append(starts, n))
    groups = counts.size
    depth = int(counts.max())
    pos = np.arange(n) - starts[group_id]
    valid = np.arange(depth)[None, :] < counts[:, None]

    lane = np.full((groups, depth), np.inf)
    lane[group_id, pos] = arrival[perm]
    row_order = np.argsort(lane, axis=1, kind="stable")
    order = perm[(starts[:, None] + row_order)[valid]]

    arrivals = np.zeros((groups, depth))
    arrivals[group_id, pos] = arrival[order]
    bg = bg_per_ost[ost_sorted[starts]].astype(np.float64)

    # Arrival phase: j streams are active in the gap before arrival j+1.
    service = np.zeros((groups, depth))
    if depth > 1:
        gaps = np.diff(arrivals, axis=1)
        streams = np.arange(1.0, depth)[None, :] + bg[:, None]
        inc = np.where(valid[:, 1:], _per_stream_rate(bw, slope, streams) * gaps, 0.0)
        np.cumsum(inc, axis=1, out=service[:, 1:])
    thresholds = service + size
    rows = np.arange(groups)
    service_last = service[rows, counts - 1]
    t_last = arrivals[rows, counts - 1]
    storm = _storm_regime(service_last, size)

    # Completion phase: the queue drains FIFO, streams stepping down.
    remaining = counts[:, None] - np.arange(depth)[None, :]
    streams = np.where(valid, remaining, 1.0) + bg[:, None]
    rate = _per_stream_rate(bw, slope, streams)
    num = np.empty_like(thresholds)
    num[:, 0] = thresholds[:, 0] - service_last
    num[:, 1:] = np.diff(thresholds, axis=1)
    dt = np.where(valid, num / rate, 0.0)
    dt[:, 0] += t_last
    finish = np.cumsum(dt, axis=1)

    out = np.empty(n, dtype=np.float64)
    # Scatter every lane unmasked; lanes that failed the storm check hold
    # garbage here and are overwritten by the lockstep re-solve below.
    out[order] = finish[group_id, pos]
    if not storm.all():
        # Sparse early arrivals let a request finish mid-storm; those
        # lanes re-run in lockstep — one event per lane per pass, same
        # scalar arithmetic as the FIFO loop, still fully vectorised.
        bad = np.flatnonzero(~storm)
        _solve_lockstep_fifo(
            bw,
            slope,
            bg[bad],
            arrival[order],
            size,
            order,
            starts[bad],
            starts[bad] + counts[bad],
            out,
        )
    return out


def _solve_lockstep_fifo(
    bw: float,
    slope: float,
    bg_per_lane: FloatArray,
    arr: FloatArray,
    size: float,
    positions: IntArray,
    starts: IntArray,
    ends: IntArray,
    out: FloatArray,
) -> None:
    """Lockstep FIFO sweep over a set of non-empty OST lanes.

    ``arr``/``positions`` are flat arrival-sorted-per-OST views and each
    (start, end) pair is one lane.  Every lane's scalar loop state (wall
    clock, cumulative service, arrival/completion cursors) is one vector
    element and each pass advances every unfinished lane by exactly one
    event — an arrival or a completion, after an idle jump if the lane is
    empty — with :func:`_solve_one_ost`'s arithmetic applied element-wise,
    so results stay bit-identical to scalar solving.  Equal sizes complete
    in arrival order, so the oldest pending request is always next.  Lanes
    leave the vectors as soon as they finish.
    """
    n = arr.size
    head = starts.astype(np.int64)  # oldest pending request per lane
    nxt = head.copy()  # next arrival per lane
    ends = ends.astype(np.int64)
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
    bw: float,
    slope: float,
    background: float,
    arrivals: list[float],
    sizes: list[float],
    positions: list[int],
    start: int,
    end: int,
    out: FloatArray,
) -> None:
    """Virtual-service-time sweep of one OST's arrival-sorted requests."""
    heap: list[tuple[float, int]] = []  # (service threshold, output position)
    t = 0.0  # wall-clock time
    service = 0.0  # cumulative per-stream service S(t)
    i = start
    while i < end or heap:
        if not heap:
            # Idle OST: jump to the next arrival; no service accrues.
            if arrivals[i] > t:
                t = arrivals[i]
            heapq.heappush(heap, (service + sizes[i], positions[i]))
            i += 1
            continue
        streams = len(heap) + background
        penalty = 1.0 if streams <= 1.0 else min(1.0 + slope * (streams - 1.0), PENALTY_CAP)
        rate = bw / (streams * penalty)
        threshold, pos = heap[0]
        t_complete = t + (threshold - service) / rate
        if i < end and arrivals[i] <= t_complete:
            service += rate * (arrivals[i] - t)
            t = arrivals[i]
            heapq.heappush(heap, (service + sizes[i], positions[i]))
            i += 1
        else:
            service = threshold
            t = t_complete
            heapq.heappop(heap)
            out[pos] = t
