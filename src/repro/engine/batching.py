"""Batched solving of independent request batches.

Multi-replication statistics (:mod:`repro.stats`) need the completion
times of R independently-seeded copies of an iteration, and a composed
scenario (:mod:`repro.workloads`) those of every iteration.  Solving
them one :func:`~repro.engine.api.solve` call at a time costs a trip
through the backend each; :func:`solve_groups` instead stacks them along
a *virtual OST axis* — contention group ``k``'s requests are shifted
into OST block ``[k * ost_count, (k + 1) * ost_count)`` of a machine
with ``len(groups) * ost_count`` OSTs — and solves stacks of up to
``_MAX_STACK_UNITS`` requests plus virtual OSTs per engine call, so
every caller's working set stays bounded.  OSTs are independent servers
in every backend, so a stacked solve returns exactly what per-group
solving would, while the vectorized backend gets wide batches whose
lanes it advances together, one numpy pass per event.
:func:`solve_many` is the one-batch-per-group case.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, pairwise
from typing import TypeVar

import numpy as np

from ..util import FloatArray
from .api import _checked_background, solve
from .machines import Machine
from .requests import RequestBatch

__all__ = ["solve_groups", "solve_many", "stack_chunks"]

_T = TypeVar("_T")

#: Most units one engine call may hold.  A group costs its requests plus
#: ``ost_count``, its block of virtual OSTs, which sets the width of the
#: stacked background and of the per-OST arrays.  A group over the cap
#: gets a call of its own and is never split.  The groups are
#: independent, so how they share calls cannot change an output bit.
_MAX_STACK_UNITS = 1 << 17


def solve_groups(
    machine: Machine,
    groups: Sequence[Sequence[RequestBatch]],
    *,
    backgrounds: Sequence[FloatArray | None] | None = None,
    large_writes: bool,
) -> list[list[FloatArray]]:
    """Solve independent contention groups against ``machine``, stacked.

    The batches of ``groups[k]`` contend with each other and with
    ``backgrounds[k]`` (one per-OST array per group, ``None`` for a quiet
    system), never with another group.  Returns, per group, one
    completion-time array per member — the same values, bit for bit, as
    solving the group's :func:`~repro.engine.requests.merge_batches`
    batch alone.  Consecutive groups share an engine call of at most
    ``_MAX_STACK_UNITS`` requests plus virtual OSTs, and every background
    is checked before the first call.  Both solve on the default backend
    (see :func:`~repro.engine.api.use_backend`).  A stack holds each
    request column once: a size that every non-empty member broadcasts
    stays one value, not a copy per request.
    """
    groups = [list(group) for group in groups]
    if backgrounds is None:
        backgrounds = [None] * len(groups)
    elif len(backgrounds) != len(groups):
        raise ValueError(f"got {len(backgrounds)} backgrounds for {len(groups)} groups")
    checked: list[FloatArray | None] = []
    for k, bg in enumerate(backgrounds):
        try:  # solve's rule, so an error names the group as well as the OST
            checked.append(None if bg is None else _checked_background(machine, bg))
        except ValueError as exc:
            raise ValueError(f"backgrounds[{k}]: {exc}") from None
    sizes = [sum(len(batch) for batch in group) for group in groups]
    solved: list[list[FloatArray]] = []
    for run in stack_chunks(range(len(groups)), lambda k: sizes[k], machine.ost_count):
        part = slice(run[0], run[-1] + 1)
        solved += _solve_stack(machine, groups[part], sizes[part], checked[part], large_writes)
    return solved


def solve_many(
    machine: Machine,
    batches: Sequence[RequestBatch],
    *,
    backgrounds: Sequence[FloatArray | None] | None = None,
    large_writes: bool,
) -> list[FloatArray]:
    """:func:`solve_groups` with one batch per group: one completion-time
    array per batch, bit-identical to solving each batch alone."""
    groups = solve_groups(
        machine,
        [[batch] for batch in batches],
        backgrounds=backgrounds,
        large_writes=large_writes,
    )
    return [group[0] for group in groups]


def stack_chunks(
    items: Iterable[_T], requests: Callable[[_T], int], ost_count: int
) -> Iterator[list[_T]]:
    """Runs of consecutive ``items`` that share one engine call: within
    ``_MAX_STACK_UNITS``, or one item over it.  An item costs its
    ``requests`` plus ``ost_count``, its block of virtual OSTs.  Items are
    drawn only as a run fills, so a caller that streams them holds one
    engine call's items, not the whole stack."""
    chunk: list[_T] = []
    units = 0
    for item in items:
        cost = requests(item) + ost_count
        if chunk and units + cost > _MAX_STACK_UNITS:
            yield chunk
            chunk, units = [], 0
        chunk.append(item)
        units += cost
    if chunk:
        yield chunk


def _solve_stack(
    machine: Machine,
    groups: list[list[RequestBatch]],
    sizes: list[int],
    backgrounds: list[FloatArray | None],
    large_writes: bool,
) -> list[list[FloatArray]]:
    """One engine call for ``groups``, stacked on their virtual OST blocks."""
    members = [batch for group in groups for batch in group]
    if not members:
        return [[] for _ in groups]
    # Members stay contiguous and in order, as merge_batches keeps them.
    ost = np.concatenate([batch.ost for batch in members]) % machine.ost_count
    ost += np.repeat(np.arange(len(groups)) * machine.ost_count, sizes)
    stacked = RequestBatch(
        arrival=np.concatenate([batch.arrival for batch in members]),
        ost=ost,
        nbytes=_stacked_nbytes(members),
    )
    done = solve(
        machine.with_overrides(ost_count=len(groups) * machine.ost_count),
        stacked,
        background=_stack_backgrounds(machine, backgrounds),
        large_writes=large_writes,
    )
    bounds = pairwise(accumulate((len(batch) for batch in members), initial=0))
    parts = [done[start:end] for start, end in bounds]
    ends = np.cumsum([len(group) for group in groups])
    return [parts[end - len(group) : end] for group, end in zip(groups, ends, strict=True)]


def _stacked_nbytes(members: Sequence[RequestBatch]) -> FloatArray:
    """The members' sizes as one column, or as one broadcast value when
    every non-empty member broadcasts (or is one request of) the same
    bits, so ``-0.0`` stays apart from ``0.0``: no copy per request."""
    columns = [batch.nbytes for batch in members if len(batch)]
    if all(column.strides == (0,) or column.size == 1 for column in columns):
        if len({column[:1].tobytes() for column in columns}) == 1:
            return columns[0][:1]
    return np.concatenate([batch.nbytes for batch in members])


def _stack_backgrounds(
    machine: Machine, backgrounds: Sequence[FloatArray | None]
) -> FloatArray | None:
    """One per-virtual-OST load array for the stack (``None`` if all quiet)."""
    if all(bg is None for bg in backgrounds):
        return None
    quiet = np.zeros(machine.ost_count)
    return np.concatenate([quiet if bg is None else bg for bg in backgrounds])
