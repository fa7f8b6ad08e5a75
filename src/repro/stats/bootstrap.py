"""Seeded percentile-bootstrap confidence intervals.

The experiments report means over a handful of replications; a normal
approximation would be shaky at R = 30 and the underlying distributions
(heavy-tailed visible write times) are exactly what the paper is about.
The percentile bootstrap makes no shape assumption: resample the
replication values with replacement, take the mean of each resample, and
read the interval off the quantiles of those means.

Determinism: the resampling rng is derived from the crc32 name-hash
scheme (``["bootstrap", column key, sample count, seed]``), never from
global state, so a reduced table is bit-identical no matter where or how
often the reduction runs — the same property the replication seeds
guarantee.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..util import seed_key

__all__ = ["bootstrap_ci"]

#: Default resample count; 1000 keeps a full table reduction in the
#: low-millisecond range while the quantile error stays well below the
#: interval widths seen at 30 replications.
DEFAULT_RESAMPLES = 1000


def bootstrap_ci(
    samples: npt.ArrayLike,
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    key: str = "",
) -> tuple[float, float]:
    """Percentile-bootstrap confidence interval of the mean of ``samples``.

    ``key`` names the quantity (typically the column being reduced) so
    different columns draw independent resampling streams.  A single
    sample yields the degenerate interval ``(x, x)``.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"bootstrap_ci needs a non-empty 1-d sample, got shape {values.shape}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be within (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if values.size == 1:
        return float(values[0]), float(values[0])
    rng = np.random.default_rng([seed_key("bootstrap"), seed_key(key), values.size, seed])
    picks = rng.integers(0, values.size, size=(resamples, values.size))
    means = values[picks].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)
