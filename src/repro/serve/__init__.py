"""repro.serve: a memoized solve service.

The service front-end for the engine: clients submit
:class:`SolveRequest` cells, the :class:`SolveService` dedups them by
canonical content hash, serves repeats from a :class:`SolveCache`, and
solves the misses through the stacked :func:`~repro.engine.solve_many`
path.  Results are bit-identical to serial per-request solving at any
arrival order.
"""

from __future__ import annotations

from .cache import CacheStats, SolveCache
from .coalesce import Bucket, coalesce
from .keys import KEY_SCHEMA, request_key
from .request import SolveRequest, SolveResponse
from .service import ServiceStats, SolveService
from .stream import demo_stream

__all__ = [
    "KEY_SCHEMA",
    "Bucket",
    "CacheStats",
    "ServiceStats",
    "SolveCache",
    "SolveRequest",
    "SolveResponse",
    "SolveService",
    "coalesce",
    "demo_stream",
    "request_key",
]
