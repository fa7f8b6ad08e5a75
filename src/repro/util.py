"""Byte-size constants and small helpers shared across the package."""

from __future__ import annotations

import zlib

import numpy as np
import numpy.typing as npt

__all__ = [
    "KB",
    "MB",
    "GB",
    "FloatArray",
    "IntArray",
    "seed_key",
    "replication_seed",
]

#: The package's array currencies: request times/sizes are float64 arrays,
#: OST indices are int64 arrays.  Annotation aliases only — at runtime
#: these are ordinary ``np.ndarray`` objects.
FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def seed_key(name: str) -> int:
    """Stable integer identity of a registered name for rng derivation.

    A CRC of the *name* — never a position in a registry or selection — so
    adding, removing or reordering registered objects (approaches, arrival
    processes, workloads) can never silently shift an existing experiment's
    random stream.
    """
    return zlib.crc32(name.encode("utf-8"))


def replication_seed(seed: int, replication: int) -> int:
    """Base seed of replication ``replication`` of a seeded run.

    Replication 0 *is* the historical single-run stream (so adding
    replications can never shift existing golden values), and every
    further replication offsets the seed by the crc32 name-hash of
    ``"replication:<r>"`` — a pure function of the replication's
    identity, never of how replications are batched or reordered.
    """
    if replication < 0:
        raise ValueError(f"replication index must be >= 0, got {replication}")
    if replication == 0:
        return seed
    return seed + seed_key(f"replication:{replication}")
