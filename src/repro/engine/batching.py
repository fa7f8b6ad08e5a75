"""Batched solving of independent request batches.

Multi-replication statistics (:mod:`repro.stats`) need the completion
times of R independently-seeded copies of an iteration, and a composed
scenario (:mod:`repro.workloads`) those of every iteration.  Solving
them one :func:`~repro.engine.api.solve` call at a time costs a trip
through the backend each; :func:`solve_groups` instead stacks them along
a *virtual OST axis* — contention group ``k``'s requests are shifted
into OST block ``[k * ost_count, (k + 1) * ost_count)`` of a machine
with ``len(groups) * ost_count`` OSTs — and solves the whole stack in
one call.  OSTs are independent servers in every backend, so the stacked
solve returns exactly what per-group solving would, while the vectorized
backend gets one wide batch whose lanes it advances together, one numpy
pass per event, instead of many narrow ones.  :func:`solve_many` is the
one-batch-per-group case.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..util import FloatArray
from .api import _checked_background, solve
from .machines import Machine
from .requests import RequestBatch

__all__ = ["solve_groups", "solve_many"]


def solve_groups(
    machine: Machine,
    groups: Sequence[Sequence[RequestBatch]],
    *,
    backgrounds: Sequence[FloatArray | None] | None = None,
    large_writes: bool,
) -> list[list[FloatArray]]:
    """Solve independent contention groups against ``machine`` in one engine call.

    The batches of ``groups[k]`` contend with each other and with
    ``backgrounds[k]`` (one per-OST array per group, ``None`` for a quiet
    system), never with another group.  Returns, per group, one
    completion-time array per member — the same values, bit for bit, as
    solving the group's :func:`~repro.engine.requests.merge_batches`
    batch alone.  Both solve on the default backend (see
    :func:`~repro.engine.api.use_backend`).  The stack holds each request
    column once: a size that every non-empty member broadcasts stays one
    value, not a copy per request.
    """
    groups = [list(group) for group in groups]
    if backgrounds is not None:
        backgrounds = list(backgrounds)
        if len(backgrounds) != len(groups):
            raise ValueError(f"got {len(backgrounds)} backgrounds for {len(groups)} groups")
    members = [batch for group in groups for batch in group]
    if not members:
        return [[] for _ in groups]
    # Members stay contiguous and in order, as merge_batches keeps them.
    sizes = [sum(len(batch) for batch in group) for group in groups]
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
    parts = np.split(done, np.cumsum([len(batch) for batch in members[:-1]]))
    ends = np.cumsum([len(group) for group in groups])
    return [parts[end - len(group) : end] for group, end in zip(groups, ends, strict=True)]


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
    machine: Machine, backgrounds: Sequence[FloatArray | None] | None
) -> FloatArray | None:
    """One per-virtual-OST load array for the stack (``None`` if all quiet).

    Each group's background is checked with :func:`solve`'s rule first, so
    an error names the group as well as the OST.
    """
    if backgrounds is None or all(bg is None for bg in backgrounds):
        return None
    quiet = np.zeros(machine.ost_count)
    parts: list[FloatArray] = []
    for index, bg in enumerate(backgrounds):
        if bg is None:
            parts.append(quiet)
            continue
        try:
            parts.append(_checked_background(machine, bg))
        except ValueError as exc:
            raise ValueError(f"backgrounds[{index}]: {exc}") from None
    return np.concatenate(parts)
