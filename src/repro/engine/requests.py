"""Write-request containers consumed by the engine backends.

A write is three numbers in the model: when it arrives, which OST it
hits and how many bytes it carries.  :class:`RequestBatch` holds a batch
of them as three parallel numpy arrays, so an iteration with thousands
of writers costs three arrays rather than thousands of Python objects.

:func:`merge_batches` / :func:`split_by_segment` concatenate several
applications' batches into one batch over the shared OSTs (so their
requests contend inside one solver call) and split the completion times
back out; :func:`~repro.engine.solve_groups` stacks groups the same way.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ..util import FloatArray, IntArray

__all__ = ["RequestBatch", "LaneOrder", "merge_batches", "split_by_segment"]


@dataclass(frozen=True)
class LaneOrder:
    """A batch's requests regrouped into contiguous per-OST lanes.

    Every vectorized solve consumes this view: requests sorted by
    ``(ost % ost_count, arrival)`` — the exact ``np.lexsort`` order the
    per-OST loops have always used — with the sorted columns
    materialised as contiguous arrays, except that a size the whole
    batch shares stays the batch's one broadcast value.  Lane ``k``
    occupies ``[starts[k], ends[k])`` of every sorted array and serves
    OST ``ost[k]``.
    """

    #: Batch positions in lane order (``out[order[i]]`` scatters back).
    order: IntArray
    #: Arrival times in lane order (contiguous).
    arrival: FloatArray
    #: Request sizes in lane order (contiguous, or one broadcast size).
    nbytes: FloatArray
    #: Per-lane offsets into the sorted arrays.
    starts: IntArray
    ends: IntArray
    #: The (modded) OST id each lane contends on, one entry per lane.
    ost: IntArray


class RequestBatch:
    """A batch of write requests as parallel numpy arrays.

    Scalar ``arrival``/``ost``/``nbytes`` broadcast to the batch length
    (numpy's rule, so an empty column beside scalars makes an empty
    batch), and every field is a read-only view of its input.  A request
    is known by its position in the batch, which is also the order of the
    completion-time array the solvers return.
    Arrivals and sizes must be finite and non-negative, and OST ids whole
    numbers; anything else raises a :class:`ValueError` naming the field
    and the first bad index, because the backends would otherwise
    disagree (or never finish) on it, or solve a truncated id.
    """

    __slots__ = ("arrival", "ost", "nbytes")

    arrival: FloatArray
    ost: IntArray
    nbytes: FloatArray

    def __init__(self, arrival: npt.ArrayLike, ost: npt.ArrayLike, nbytes: npt.ArrayLike) -> None:
        arrival = np.atleast_1d(np.asarray(arrival, dtype=np.float64))
        ost = np.atleast_1d(np.asarray(ost))
        nbytes = np.atleast_1d(np.asarray(nbytes, dtype=np.float64))
        # A length-1 column stretches to the others' length, 0 included.
        n = max((c.size for c in (arrival, ost, nbytes) if c.size != 1), default=1)
        self.arrival = _read_only("arrival", arrival, n)
        self.ost = _read_only("ost", ost, n)
        self.nbytes = _read_only("nbytes", nbytes, n)
        # Values are checked on the 1-D inputs, so a scalar input costs O(1).
        _require("arrival", arrival, np.isfinite(arrival), "finite")
        _require("arrival", arrival, arrival >= 0.0, ">= 0")
        _require("nbytes", nbytes, np.isfinite(nbytes) & (nbytes >= 0.0), "finite and >= 0")
        if ost.dtype != np.int64:
            self.ost = _read_only("ost", _whole_ids(ost), n)

    def lanes(self, ost_count: int) -> LaneOrder:
        """Per-OST lanes of a width-``ost_count`` machine: what every vectorized solve sweeps."""
        if ost_count < 1:
            raise ValueError(f"ost_count must be >= 1, got {ost_count}")
        n = self.arrival.size
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return LaneOrder(
                order=empty,
                arrival=np.empty(0, dtype=np.float64),
                nbytes=np.empty(0, dtype=np.float64),
                starts=empty,
                ends=empty,
                ost=empty,
            )
        # Group by OST with a stable radix sort on the narrowest unsigned
        # dtype that holds the ids (fewer radix passes), then order each
        # lane by arrival with one row-wise stable argsort of a padded
        # matrix.  Both sorts are stable, so the order equals
        # ``np.lexsort((arrival, ost))`` without its full float sort.  A stack
        # holds up to ~10^6 requests: free each temporary once it is consumed.
        key = (self.ost % ost_count).astype(np.min_scalar_type(ost_count - 1))
        perm = np.argsort(key, kind="stable")
        key = key[perm]
        is_first = np.empty(n, dtype=bool)
        is_first[0] = True
        np.not_equal(key[1:], key[:-1], out=is_first[1:])
        starts = np.flatnonzero(is_first)
        ost = key[starts].astype(np.int64)
        del key, is_first
        counts = np.diff(starts, append=n)
        depth = int(counts.max())
        if starts.size * depth > 4 * n:
            # A few deep lanes among many shallow ones: the padded matrix
            # would dwarf the batch, so sort the flat columns instead.
            order = np.lexsort((self.arrival, self.ost % ost_count))
        else:
            # Flat (lane, slot) cell of every request in OST-sorted order;
            # the inf padding sorts after every (finite) arrival.
            cell = np.repeat(np.arange(starts.size) * depth - starts, counts)
            cell += np.arange(n)
            padded = np.full(starts.size * depth, np.inf)
            padded[cell] = self.arrival[perm]
            by_arrival = np.argsort(padded.reshape(-1, depth), axis=1, kind="stable").ravel()
            del padded
            # Slot s of lane k takes the lane's s-th arrival: its column in
            # the sorted row plus the lane's start.
            by_arrival = by_arrival[cell]
            del cell
            by_arrival += np.repeat(starts, counts)
            order = perm[by_arrival]
            del perm, by_arrival
        # A shared size stays one broadcast value: nothing to regroup.
        nbytes = self.nbytes if self.nbytes.strides == (0,) else self.nbytes[order]
        return LaneOrder(
            order=order,
            arrival=self.arrival[order],
            nbytes=nbytes,
            starts=starts,
            ends=starts + counts,
            ost=ost,
        )

    def __len__(self) -> int:
        return int(self.arrival.size)

    def __repr__(self) -> str:
        return f"RequestBatch({len(self)} requests)"


def _read_only(field: str, values: npt.NDArray[Any], n: int) -> npt.NDArray[Any]:
    """A read-only length-``n`` view of ``values``; only a scalar pays for
    ``broadcast_to`` (several microseconds), and any other shape raises."""
    if values.shape != (n,):
        if values.shape != (1,):
            raise ValueError(
                f"RequestBatch {field} must be 1-D with 1 or {n} entries, got shape {values.shape}"
            )
        return np.broadcast_to(values, (n,))
    view = values.view()
    view.flags.writeable = False
    return view


def _whole_ids(ost: npt.NDArray[Any]) -> IntArray:
    """``ost`` cast to int64, rejected where the cast would truncate or
    garble an id (signed integer columns cast exactly)."""
    if ost.dtype.kind == "u":
        # numpy infers uint64 for ints from 2**63 up, which int64 wraps.
        _require("ost", ost, ost <= np.iinfo(np.int64).max, "within the int64 range")
    elif ost.dtype.kind != "i":
        ids = ost.astype(np.float64)
        _require("ost", ids, np.isfinite(ids) & (np.trunc(ids) == ids), "a whole number")
        _require("ost", ids, np.abs(ids) < 2.0**63, "within the int64 range")
    return ost.astype(np.int64)


def _require(field: str, values: FloatArray, ok: npt.NDArray[np.bool_], rule: str) -> None:
    """Reject ``values`` unless ``ok`` holds everywhere, naming the first bad index."""
    if not ok.all():
        index = int(np.argmin(ok))
        raise ValueError(f"RequestBatch {field}[{index}] must be {rule}, got {values[index]}")


def merge_batches(batches: Sequence[RequestBatch]) -> tuple[RequestBatch, IntArray]:
    """Concatenate several batches into one over the shared OSTs.

    Returns the merged batch plus a parallel ``segments`` array mapping
    every merged request back to the index of its source batch, so
    per-source results can be recovered with :func:`split_by_segment`.
    Order within each source batch is kept.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("merge_batches needs at least one batch")
    merged = RequestBatch(
        arrival=np.concatenate([b.arrival for b in batches]),
        ost=np.concatenate([b.ost for b in batches]),
        nbytes=np.concatenate([b.nbytes for b in batches]),
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
