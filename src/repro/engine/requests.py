"""Write-request containers consumed by the engine backends.

:class:`WriteRequest` is the original one-object-per-write form; it is
kept for tests and ad-hoc use.  The hot path of the I/O models builds a
:class:`RequestBatch` instead — a struct-of-arrays over the same four
fields — so an iteration with thousands of writers costs four numpy
arrays rather than thousands of Python objects.

:func:`merge_batches` / :func:`split_by_segment` concatenate several
applications' batches into one batch over the shared OSTs (so their
requests contend inside one solver call) and split the completion times
back out; :func:`~repro.engine.solve_groups` stacks groups the same way.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ..util import FloatArray, IntArray

__all__ = ["WriteRequest", "RequestBatch", "LaneOrder", "merge_batches", "split_by_segment"]


@dataclass(frozen=True)
class WriteRequest:
    """One timed write against one OST."""

    arrival: float
    ost: int
    nbytes: float
    tag: int


@dataclass(frozen=True)
class LaneOrder:
    """A batch's requests regrouped into contiguous per-OST lanes.

    The vectorized backend's staggered lane loops consume this view:
    requests sorted by ``(ost % ost_count, arrival)`` — the exact
    ``np.lexsort`` order the per-OST loops have always used — with the
    sorted columns materialised as contiguous arrays.  Lane ``k``
    occupies ``[starts[k], ends[k])`` of every sorted array and serves
    OST ``ost[k]``.
    """

    #: Batch positions in lane order (``out[order[i]]`` scatters back).
    order: IntArray
    #: Arrival times in lane order (contiguous).
    arrival: FloatArray
    #: Request sizes in lane order (contiguous).
    nbytes: FloatArray
    #: Per-lane offsets into the sorted arrays.
    starts: IntArray
    ends: IntArray
    #: The (modded) OST id each lane contends on, one entry per lane.
    ost: IntArray

    @property
    def lane_count(self) -> int:
        """Number of occupied OST lanes."""
        return int(self.starts.size)


class RequestBatch:
    """A batch of write requests as parallel numpy arrays.

    Scalar ``arrival``/``ost``/``nbytes`` broadcast to the batch length;
    ``tag`` defaults to the position in the batch (``0..n-1``), which is
    also the order of the completion-time array the solvers return.
    ``arrival``/``ost``/``nbytes`` are read-only views of their inputs.
    Arrivals and sizes must be finite and non-negative; anything else
    raises a :class:`ValueError` naming the field and the first bad
    index, because the backends would otherwise disagree (or never
    finish) on it.
    """

    __slots__ = ("arrival", "ost", "nbytes", "tag", "_lane_orders")

    arrival: FloatArray
    ost: IntArray
    nbytes: FloatArray
    tag: IntArray
    #: ``ost_count -> LaneOrder`` cache; batches are logically immutable,
    #: so the (sort-dominated) lane grouping is computed once per
    #: machine width and reused by every subsequent staggered solve.
    _lane_orders: dict[int, LaneOrder]

    def __init__(
        self,
        arrival: npt.ArrayLike,
        ost: npt.ArrayLike,
        nbytes: npt.ArrayLike,
        tag: npt.ArrayLike | None = None,
    ) -> None:
        arrival = np.atleast_1d(np.asarray(arrival, dtype=np.float64))
        ost = np.atleast_1d(np.asarray(ost, dtype=np.int64))
        nbytes = np.atleast_1d(np.asarray(nbytes, dtype=np.float64))
        # Checked before broadcasting, so a scalar input costs O(1).
        _require("arrival", arrival, np.isfinite(arrival), "finite")
        _require("arrival", arrival, arrival >= 0.0, ">= 0")
        _require("nbytes", nbytes, np.isfinite(nbytes) & (nbytes >= 0.0), "finite and >= 0")
        n = max(arrival.size, ost.size, nbytes.size)
        self.arrival = _read_only(arrival, n)
        self.ost = _read_only(ost, n)
        self.nbytes = _read_only(nbytes, n)
        if tag is None:
            self.tag = np.arange(n, dtype=np.int64)
        else:
            self.tag = np.atleast_1d(np.asarray(tag, dtype=np.int64))
            if self.tag.size != n:
                raise ValueError(f"tag length {self.tag.size} does not match batch length {n}")
        self._lane_orders = {}

    def lanes(self, ost_count: int) -> LaneOrder:
        """The batch regrouped into per-OST lanes of a width-``ost_count``
        machine, computed once and cached (batches are immutable)."""
        if ost_count < 1:
            raise ValueError(f"ost_count must be >= 1, got {ost_count}")
        cached = self._lane_orders.get(ost_count)
        if cached is not None:
            return cached
        ost = self.ost % ost_count
        n = ost.size
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            view = LaneOrder(
                order=empty,
                arrival=np.empty(0, dtype=np.float64),
                nbytes=np.empty(0, dtype=np.float64),
                starts=empty,
                ends=empty,
                ost=empty,
            )
            self._lane_orders[ost_count] = view
            return view
        # Group by OST with a stable radix sort on the narrowest unsigned
        # dtype that holds the ids (fewer radix passes), then order each
        # lane by arrival with one row-wise stable argsort of a padded
        # matrix.  Both sorts are stable, so the order equals
        # ``np.lexsort((arrival, ost))`` without its full float sort.
        key = ost.astype(np.min_scalar_type(ost_count - 1))
        perm = np.argsort(key, kind="stable")
        ost_sorted = ost[perm]
        is_first = np.empty(n, dtype=bool)
        is_first[0] = True
        np.not_equal(ost_sorted[1:], ost_sorted[:-1], out=is_first[1:])
        starts = np.flatnonzero(is_first)
        counts = np.diff(starts, append=n)
        depth = int(counts.max())
        if starts.size * depth > 4 * n:
            # A few deep lanes among many shallow ones: the padded matrix
            # would dwarf the batch, so sort the flat columns instead.
            order = np.lexsort((self.arrival, ost))
        else:
            # Flat (lane, slot) cell of every request in OST-sorted order;
            # the inf padding sorts after every (finite) arrival.
            lane_start = np.repeat(starts, counts)
            cell = np.arange(n) - lane_start + np.repeat(np.arange(starts.size) * depth, counts)
            padded = np.full(starts.size * depth, np.inf)
            padded[cell] = self.arrival[perm]
            by_arrival = np.argsort(padded.reshape(-1, depth), axis=1, kind="stable").ravel()
            order = perm[lane_start + by_arrival[cell]]
        view = LaneOrder(
            order=order,
            arrival=np.ascontiguousarray(self.arrival[order]),
            nbytes=np.ascontiguousarray(self.nbytes[order]),
            starts=starts,
            ends=starts + counts,
            ost=ost_sorted[starts],
        )
        self._lane_orders[ost_count] = view
        return view

    @classmethod
    def from_requests(cls, requests: Iterable[WriteRequest]) -> RequestBatch:
        """Build a batch from :class:`WriteRequest` objects."""
        requests = list(requests)
        if not requests:
            return cls(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
        return cls(
            arrival=[r.arrival for r in requests],
            ost=[r.ost for r in requests],
            nbytes=[r.nbytes for r in requests],
            tag=[r.tag for r in requests],
        )

    def to_requests(self) -> list[WriteRequest]:
        """The batch as a list of :class:`WriteRequest` objects."""
        return [
            WriteRequest(
                arrival=float(self.arrival[i]),
                ost=int(self.ost[i]),
                nbytes=float(self.nbytes[i]),
                tag=int(self.tag[i]),
            )
            for i in range(len(self))
        ]

    def __len__(self) -> int:
        return int(self.arrival.size)

    def __repr__(self) -> str:
        return f"RequestBatch({len(self)} requests)"


def _read_only(values: npt.NDArray[Any], n: int) -> npt.NDArray[Any]:
    """A read-only length-``n`` view of ``values``; only a scalar pays for
    ``broadcast_to`` (several microseconds), and any other length raises."""
    if values.shape != (n,):
        return np.broadcast_to(values, (n,))
    view = values.view()
    view.flags.writeable = False
    return view


def _require(field: str, values: FloatArray, ok: npt.NDArray[np.bool_], rule: str) -> None:
    """Reject ``values`` unless ``ok`` holds everywhere, naming the first bad index."""
    if not ok.all():
        index = int(np.argmin(ok))
        raise ValueError(f"RequestBatch {field}[{index}] must be {rule}, got {values[index]}")


def merge_batches(batches: Sequence[RequestBatch]) -> tuple[RequestBatch, IntArray]:
    """Concatenate several batches into one over the shared OSTs.

    Returns the merged batch (original tags preserved) plus a parallel
    ``segments`` array mapping every merged request back to the index of
    its source batch, so per-source results can be recovered with
    :func:`split_by_segment`.  Order within each source batch is kept.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("merge_batches needs at least one batch")
    merged = RequestBatch(
        arrival=np.concatenate([b.arrival for b in batches]),
        ost=np.concatenate([b.ost for b in batches]),
        nbytes=np.concatenate([b.nbytes for b in batches]),
        tag=np.concatenate([b.tag for b in batches]),
    )
    segments = np.repeat(np.arange(len(batches)), [len(b) for b in batches])
    return merged, segments


def split_by_segment(
    values: npt.ArrayLike, segments: npt.ArrayLike, count: int
) -> list[npt.NDArray[Any]]:
    """Split a per-request array back into per-source arrays.

    ``values`` is anything aligned with a merged batch (typically the
    solver's completion times); ``segments`` is the map returned by
    :func:`merge_batches`.  Within each segment the original batch order
    is preserved.
    """
    values = np.asarray(values)
    segments = np.asarray(segments)
    if values.shape != segments.shape:
        raise ValueError(
            f"values shape {values.shape} does not match segments shape {segments.shape}"
        )
    return [values[segments == i] for i in range(count)]
