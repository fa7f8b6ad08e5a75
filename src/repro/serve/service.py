"""The memoized solve service.

:class:`SolveService` accepts a stream of
:class:`~repro.serve.request.SolveRequest` cells (:meth:`~SolveService.submit`),
and on :meth:`~SolveService.flush` resolves the whole queue:

1. **Dedup.**  Requests are keyed by their canonical content hash; equal
   keys are the same cell, solved at most once per service lifetime.
2. **Memo lookup.**  Unique cells already solved in an earlier flush are
   served straight from the :class:`~repro.serve.cache.SolveCache` — the
   O(1) hit the roadmap's overlapping-sweep traffic lives on.
3. **Coalesced solving.**  The remaining cells are grouped into
   ``(machine, write class)`` buckets and solved inline through the
   stacked :func:`~repro.engine.solve_many` path, at most
   ``_MAX_STACK`` cells per stack, on the engine's default backend.

Responses come back in submission order, each carrying the cell key and
whether it was served without running a solver.  **Determinism:** every
cell solves independently (``solve_many`` is bit-identical to per-cell
:func:`~repro.engine.solve` and the cache stores solver output
verbatim), so the service's results are bit-identical to serial
per-request solving — for any interleaving of submits and flushes and
any request arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import solve_many
from ..util import FloatArray
from .cache import CacheStats, SolveCache
from .coalesce import Bucket, coalesce
from .request import SolveRequest, SolveResponse

__all__ = ["ServiceStats", "SolveService"]

#: Most cells one stacked solve may hold.  A stack of ``k`` cells is a
#: machine of ``k * ost_count`` virtual OSTs with a background array as
#: wide, so an unbounded flush would materialise all of them at once.
#: The cells are independent: chunking cannot change an output bit.
_MAX_STACK = 512


@dataclass(frozen=True)
class ServiceStats:
    """Cumulative accounting of one service's traffic."""

    #: Requests accepted by :meth:`SolveService.submit` so far.
    submitted: int
    #: Responses produced by :meth:`SolveService.flush` so far.
    served: int
    #: Cells the service actually ran a solver for.
    solved: int
    #: Same-flush duplicates folded into an already-scheduled cell.
    coalesced: int
    #: The memo cache's own per-unique-cell lookup accounting.
    cache: CacheStats

    @property
    def hit_rate(self) -> float:
        """Fraction of served responses that needed no fresh solve."""
        return (self.served - self.solved) / self.served if self.served else 0.0


class SolveService:
    """Memoized, coalesced solving of request streams."""

    def __init__(self) -> None:
        self._cache = SolveCache()
        self._pending: list[tuple[str, SolveRequest]] = []
        self._submitted = 0
        self._served = 0
        self._solved = 0
        self._coalesced = 0

    @property
    def cache(self) -> SolveCache:
        return self._cache

    @property
    def pending(self) -> int:
        """Requests queued and not yet flushed."""
        return len(self._pending)

    def submit(self, request: SolveRequest) -> str:
        """Queue one cell; returns its canonical key (the response joins on it)."""
        key = request.key()
        self._pending.append((key, request))
        self._submitted += 1
        return key

    def flush(self) -> list[SolveResponse]:
        """Resolve every queued request; responses in submission order."""
        pending, self._pending = self._pending, []
        if not pending:
            return []
        # Dedup to first occurrence: equal keys are the same cell.
        first: dict[str, SolveRequest] = {}
        for key, request in pending:
            if key not in first:
                first[key] = request
        # Memo lookup, one per unique cell, in first-occurrence order.
        resolved: dict[str, FloatArray] = {}
        to_solve: dict[str, SolveRequest] = {}
        for key, request in first.items():
            cached = self._cache.get(key)
            if cached is None:
                to_solve[key] = request
            else:
                resolved[key] = cached
        if to_solve:
            for bucket in coalesce(to_solve.items()):
                for key, done in zip(bucket.keys, _solve_bucket(bucket), strict=True):
                    resolved[key] = self._cache.put(key, done)
        # Exactly one response per solved cell reports a fresh solve; every
        # other response was served from memory (earlier flush or coalesced).
        fresh = dict.fromkeys(to_solve, True)
        responses: list[SolveResponse] = []
        for key, _ in pending:
            solver_ran = fresh.pop(key, False)
            responses.append(
                SolveResponse(key=key, done=resolved[key], cache_hit=not solver_ran)
            )
        self._served += len(responses)
        self._solved += len(to_solve)
        self._coalesced += len(pending) - len(first)
        return responses

    @property
    def stats(self) -> ServiceStats:
        """A snapshot of the service's cumulative accounting."""
        return ServiceStats(
            submitted=self._submitted,
            served=self._served,
            solved=self._solved,
            coalesced=self._coalesced,
            cache=self._cache.stats,
        )


def _solve_bucket(bucket: Bucket) -> list[FloatArray]:
    """Every cell's completion times, in bucket order, ``_MAX_STACK`` cells per stack."""
    done: list[FloatArray] = []
    for start in range(0, len(bucket.requests), _MAX_STACK):
        chunk = bucket.requests[start : start + _MAX_STACK]
        done += solve_many(
            bucket.machine,
            [request.batch for request in chunk],
            backgrounds=[request.background for request in chunk],
            large_writes=bucket.large_writes,
        )
    return done
