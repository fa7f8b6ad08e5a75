"""Byte-size constants and small helpers shared across the package."""

from __future__ import annotations

import zlib
from collections.abc import Mapping

import numpy as np
import numpy.typing as npt

__all__ = [
    "KB",
    "MB",
    "GB",
    "FloatArray",
    "IntArray",
    "env_flag",
    "env_int",
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

#: Spellings that turn a ``REPRO_*`` boolean flag off.
FALSY_FLAGS = ("0", "", "false", "no", "off", "n")


def env_flag(env: Mapping[str, str], name: str, *, default: bool = False) -> bool:
    """Parse the boolean environment flag ``name``.

    An unset variable yields ``default``; a set one is false only for the
    :data:`FALSY_FLAGS` spellings (case-insensitive), so ``REPRO_X=off``
    and ``REPRO_X=n`` disable exactly like ``REPRO_X=0``.
    """
    value = env.get(name)
    if value is None:
        return default
    return value.lower() not in FALSY_FLAGS


def env_int(
    env: Mapping[str, str], name: str, *, default: int, minimum: int = 1
) -> int:
    """Parse the integer environment knob ``name``.

    An unset or blank variable yields ``default``.  A set one must spell
    an integer >= ``minimum``; anything else raises a :class:`ValueError`
    naming the variable and the offending value, so a typo in e.g.
    ``REPRO_SEED=two`` fails with the knob's name instead of a
    bare ``invalid literal for int()``.
    """
    raw = env.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


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
