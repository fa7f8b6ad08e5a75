"""Coalescing queued cells into ``solve_many`` mega-batches.

The engine's stacked :func:`~repro.engine.solve_many` path solves any
number of *independent* batches in one call, provided they share a
machine and a write class (the seek-penalty slope is per solve).  The
coalescer therefore groups a flush's unsolved cells into
:class:`Bucket`\\ s keyed by ``(machine, large_writes)`` — machines are
frozen dataclasses, so the grouping is plain hashing, no names involved
— and the service solves each bucket through stacked calls.

Correctness does not depend on how cells land in buckets: ``solve_many``
is bit-identical to solving each batch alone, so *any* grouping returns
the same bytes per cell.  Grouping only saves per-call overhead — one
stacked solve per bucket instead of one per cell, as in the replication
driver — now across unrelated requests.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..engine import Machine
from .request import SolveRequest

__all__ = ["Bucket", "coalesce"]


@dataclass(frozen=True)
class Bucket:
    """Cells that may share one stacked solve: one machine, one write class."""

    machine: Machine
    large_writes: bool
    #: Canonical keys of the bucket's cells, submission order preserved.
    keys: tuple[str, ...]
    requests: tuple[SolveRequest, ...]


def coalesce(cells: Iterable[tuple[str, SolveRequest]]) -> list[Bucket]:
    """Group ``(key, request)`` cells into solvable buckets.

    Buckets come back in first-seen order and keep their cells in input
    order, so the whole arrangement is a pure function of the input
    sequence — nothing about timing or scheduling can reorder it.
    """
    grouped: dict[tuple[Machine, bool], list[tuple[str, SolveRequest]]] = {}
    for key, request in cells:
        grouped.setdefault((request.machine, request.large_writes), []).append((key, request))
    return [
        Bucket(
            machine=machine,
            large_writes=large_writes,
            keys=tuple(key for key, _ in members),
            requests=tuple(request for _, request in members),
        )
        for (machine, large_writes), members in grouped.items()
    ]

