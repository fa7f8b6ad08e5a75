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
* **Staggered arrivals** (the file-per-process create storm): a
  heap-driven event loop in *virtual service time*.  The cumulative
  per-stream service ``S(t)`` is monotone, so a request arriving at
  ``a`` with ``b`` bytes completes exactly when ``S`` reaches
  ``S(a) + b``; a min-heap of those thresholds replaces the reference
  backend's scan-every-active-stream-per-event loop, taking the per-OST
  cost from O(k²) to O(k log k) with no remaining-bytes bookkeeping.
* **Wide equal-size staggered batches** (stacked replications, see
  :mod:`repro.engine.batching`): when a batch spreads over many OST
  groups and all writes are the same size, the per-OST FIFO loops are
  replaced by an all-OSTs-at-once two-phase matrix solve.  In the
  checkpoint regime the writes far outlast the arrival window, so on
  each OST every request arrives before the first one completes: the
  *arrival phase* is then a padded-row cumsum of per-stream service
  (yielding each request's completion threshold) and the *completion
  phase* a second cumsum draining the queue — a handful of numpy passes
  over a ``(osts, depth)`` matrix instead of one Python loop per OST.
  The regime assumption is checked exactly per OST (last arrival's
  accumulated service vs. the first completion threshold) and violating
  OSTs fall back to the scalar FIFO loop, so the fast path is an
  optimisation, never an approximation.
"""

from __future__ import annotations

import heapq

import numpy as np
import numpy.typing as npt

from ..util import FloatArray, IntArray
from .machines import Machine, PENALTY_CAP
from .requests import LaneOrder, RequestBatch

__all__ = ["solve_vectorized", "WIDE_MIN_GROUPS", "STORM_THRESHOLD_WRITES"]

#: Minimum OST-group count before the all-OSTs-at-once matrix solver for
#: equal-size staggered batches engages.  Stacked multi-replication
#: batches (``solve_many``) span thousands of virtual OSTs and amortise
#: the matrix setup; ordinary single-iteration solves keep the per-OST
#: FIFO pointer loop unchanged.
WIDE_MIN_GROUPS = 1024

#: The storm-regime validity bound of the wide two-phase solve, in units
#: of the shared write size: an OST lane qualifies exactly when the
#: per-stream service accumulated by its last arrival has not passed the
#: *first* request's completion threshold, which is one write size
#: (``0 + size``).  Both the fast-path check and the lockstep fallback's
#: lane selection read this single definition (:func:`_storm_regime`), so
#: the two sides of the boundary can never drift apart.
STORM_THRESHOLD_WRITES = 1.0


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
    # Equal shares mean equal sizes complete in arrival order, so the
    # pending-completion heap degenerates to a FIFO pointer.
    equal_sizes = bool(np.all(lanes.nbytes == lanes.nbytes[0]))

    arrivals_sorted = lanes.arrival.tolist()
    sizes_sorted = lanes.nbytes.tolist()
    positions = lanes.order.tolist()
    lane_bg = bg_per_ost[lanes.ost].tolist()
    out = np.empty(n, dtype=np.float64)
    solve_one = _solve_one_ost_fifo if equal_sizes else _solve_one_ost
    for lane, (start, end) in enumerate(
        zip(lanes.starts.tolist(), lanes.ends.tolist(), strict=True)
    ):
        solve_one(
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
    threshold — and violating OSTs are re-solved with the scalar FIFO
    loop, so this path is bit-identical to per-OST solving either way.
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
    """Lockstep FIFO sweep over a subset of OST lanes.

    ``arr``/``positions`` are flat arrival-sorted-per-OST views and each
    (start, end) pair is one lane.  Every lane's scalar loop state (wall
    clock, cumulative service, arrival/completion cursors) is one vector
    element and each pass advances every still-active lane by exactly one
    event — an idle jump, an arrival, or a completion — with the per-OST
    FIFO loop's arithmetic applied element-wise, so results stay
    bit-identical to scalar solving.
    """
    n = arr.size
    head = starts.astype(np.int64).copy()  # oldest active request per lane
    nxt = head.copy()  # next arrival per lane
    ends = ends.astype(np.int64)
    t = np.zeros(head.size)  # wall clock per lane
    service = np.zeros(head.size)  # cumulative per-stream service per lane
    thresholds = np.empty(n)  # service level at which a request completes

    active = head < ends
    while active.any():
        idle = active & (head == nxt)
        if idle.any():
            ii = nxt[idle]
            t[idle] = np.maximum(t[idle], arr[ii])
            thresholds[ii] = service[idle] + size
            nxt[idle] += 1
        busy = np.flatnonzero(active & (head != nxt))
        if busy.size:
            hb, ib = head[busy], nxt[busy]
            streams = (ib - hb) + bg_per_lane[busy]
            rate = _per_stream_rate(bw, slope, streams)
            t_busy, s_busy = t[busy], service[busy]
            t_complete = t_busy + (thresholds[hb] - s_busy) / rate
            has_next = ib < ends[busy]
            arr_next = np.where(has_next, arr[np.minimum(ib, n - 1)], np.inf)
            arrive = has_next & (arr_next <= t_complete)
            s_new = np.where(arrive, s_busy + rate * (arr_next - t_busy), thresholds[hb])
            service[busy] = s_new
            t[busy] = np.where(arrive, arr_next, t_complete)
            thresholds[ib[arrive]] = s_new[arrive] + size
            nxt[busy[arrive]] += 1
            done = ~arrive
            out[positions[hb[done]]] = t_complete[done]
            head[busy[done]] += 1
        active = head < ends


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


def _solve_one_ost_fifo(
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
    """Equal-size variant: completions follow arrival order, no heap."""
    thresholds = [0.0] * (end - start)
    head = start  # oldest active request (next to complete)
    i = start  # next arrival
    t = 0.0
    service = 0.0
    while head < end:
        if head == i:
            if arrivals[i] > t:
                t = arrivals[i]
            thresholds[i - start] = service + sizes[i]
            i += 1
            continue
        streams = (i - head) + background
        penalty = 1.0 if streams <= 1.0 else min(1.0 + slope * (streams - 1.0), PENALTY_CAP)
        rate = bw / (streams * penalty)
        threshold = thresholds[head - start]
        t_complete = t + (threshold - service) / rate
        if i < end and arrivals[i] <= t_complete:
            service += rate * (arrivals[i] - t)
            t = arrivals[i]
            thresholds[i - start] = service + sizes[i]
            i += 1
        else:
            service = threshold
            t = t_complete
            out[positions[head]] = t
            head += 1
