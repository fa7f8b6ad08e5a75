"""The solve service's request and response currencies.

A :class:`SolveRequest` is one *cell* of work exactly as the engine's
:func:`~repro.engine.solve` would receive it — machine, struct-of-arrays
batch, optional per-OST background, write class — frozen so a queued
request can never drift between submission and solve.  Its
:meth:`~SolveRequest.key` is the canonical content hash from
:mod:`repro.serve.keys`; two requests with equal keys are the same cell
and the service solves them once.

A :class:`SolveResponse` carries the completion times (batch order, the
engine's contract), the cell key, and whether the cell was served from
the memo cache — the accounting the hit-rate statistics and the smoke
tests read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Machine, RequestBatch, resolve_machine
from ..engine.api import _checked_background
from ..util import FloatArray
from .keys import request_key

__all__ = ["SolveRequest", "SolveResponse"]


# eq=False: the array fields make element-wise ``==`` ambiguous, and cell
# equality is the key's job anyway.
@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One solve cell: what one :func:`~repro.engine.solve` call consumes."""

    machine: Machine
    batch: RequestBatch
    background: FloatArray | None = None
    large_writes: bool = False

    def __post_init__(self) -> None:
        machine = resolve_machine(self.machine)
        object.__setattr__(self, "machine", machine)
        # Rejected here, as solve() would, so a bad cell never enters a
        # service queue that holds other cells.
        if self.background is not None:
            object.__setattr__(self, "background", _checked_background(machine, self.background))

    def key(self) -> str:
        """The canonical content hash of this cell (see :mod:`.keys`).

        Memoized in the instance ``__dict__`` (a plain dict lookup, where
        ``functools.cached_property`` takes a lock on Python 3.11): a
        request is frozen, and its arrays must not be mutated after
        construction (the engine's standing contract), so re-submitting
        the same object costs a lookup, not a fresh digest.
        """
        key: str | None = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = request_key(
                self.machine, self.batch, self.background, self.large_writes
            )
        return key


@dataclass(frozen=True, eq=False)
class SolveResponse:
    """One served cell: its identity, its times, and how it was obtained."""

    #: The cell's canonical content hash.
    key: str
    #: Completion time of every request in the cell's batch, batch order.
    done: FloatArray = field(repr=False)
    #: Whether the times came out of the memo cache (no solver ran).
    cache_hit: bool = False
