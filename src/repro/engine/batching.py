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
from .api import solve
from .machines import Machine
from .requests import RequestBatch

__all__ = ["solve_groups", "solve_many"]


def solve_groups(
    machine: Machine,
    groups: Sequence[Sequence[RequestBatch]],
    *,
    backgrounds: Sequence[FloatArray | None] | None = None,
    large_writes: bool,
    backend: str | None = None,
    max_stack: int | None = None,
) -> list[list[FloatArray]]:
    """Solve independent contention groups against ``machine`` in one engine call.

    The batches of ``groups[k]`` contend with each other and with
    ``backgrounds[k]`` (one per-OST array per group, ``None`` for a quiet
    system), never with another group.  Returns, per group, one
    completion-time array per member — the same values, bit for bit, as
    solving the group's :func:`~repro.engine.requests.merge_batches`
    batch alone on the same backend.

    ``max_stack`` bounds the groups per stack: longer inputs are solved in
    consecutive chunks (an unbounded serve mega-batch would materialise
    ``len(groups) * ost_count`` virtual OSTs of background at once).  The
    groups being independent, chunking cannot change a single output bit.
    """
    groups = [list(group) for group in groups]
    if backgrounds is not None:
        backgrounds = list(backgrounds)
        if len(backgrounds) != len(groups):
            raise ValueError(f"got {len(backgrounds)} backgrounds for {len(groups)} groups")
    if max_stack is not None:
        if max_stack < 1:
            raise ValueError(f"max_stack must be >= 1, got {max_stack}")
        if len(groups) > max_stack:
            out: list[list[FloatArray]] = []
            for start in range(0, len(groups), max_stack):
                stop = start + max_stack
                out.extend(
                    solve_groups(
                        machine,
                        groups[start:stop],
                        backgrounds=None if backgrounds is None else backgrounds[start:stop],
                        large_writes=large_writes,
                        backend=backend,
                    )
                )
            return out
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
        nbytes=np.concatenate([batch.nbytes for batch in members]),
    )
    done = solve(
        machine.with_overrides(ost_count=len(groups) * machine.ost_count),
        stacked,
        background=_stack_backgrounds(machine, backgrounds, len(groups)),
        large_writes=large_writes,
        backend=backend,
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
    backend: str | None = None,
    max_stack: int | None = None,
) -> list[FloatArray]:
    """:func:`solve_groups` with one batch per group: one completion-time
    array per batch, bit-identical to solving each batch alone."""
    groups = solve_groups(
        machine,
        [[batch] for batch in batches],
        backgrounds=backgrounds,
        large_writes=large_writes,
        backend=backend,
        max_stack=max_stack,
    )
    return [group[0] for group in groups]


def _stack_backgrounds(
    machine: Machine, backgrounds: Sequence[FloatArray | None] | None, count: int
) -> FloatArray | None:
    """One per-virtual-OST load array for the stack (``None`` if all quiet)."""
    if backgrounds is None or all(bg is None for bg in backgrounds):
        return None
    quiet = np.zeros(machine.ost_count)
    parts: list[FloatArray] = []
    for index, bg in enumerate(backgrounds):
        if bg is None:
            parts.append(quiet)
            continue
        bg = np.asarray(bg, dtype=np.float64)
        if bg.shape != (machine.ost_count,):
            raise ValueError(
                f"background {index} has shape {bg.shape}, "
                f"expected ({machine.ost_count},)"
            )
        parts.append(bg)
    return np.concatenate(parts)
