"""Replication-grade statistics for the experiment layer.

The paper's headline claim is distributional — dedicated-core I/O
collapses the *spread* of the visible write time, not just its mean —
so single seeded runs are not evidence.  This package supplies the
statistical machinery every experiment threads through:

* :mod:`~repro.stats.replication` — run N independently-seeded
  replications of an experiment cell, batched through the engine's
  stacked :func:`~repro.engine.solve_many` path (serial loop kept as
  ground truth), with streams derived from the crc32 name-hash scheme
  so results are bit-identical however replications are batched.
* :mod:`~repro.stats.bootstrap` — deterministic percentile-bootstrap
  confidence intervals of the mean.
* :mod:`~repro.stats.summary` — collapse per-replication tables into
  one row per cell with ``mean/std/cv/p95/ci_lo/ci_hi`` column families,
  grouping and counting the rows in one pass.
"""

from ..util import replication_seed
from .bootstrap import bootstrap_ci
from .replication import cell_rng, replication_rng, run_replications
from .summary import reduce_replications

__all__ = [
    "bootstrap_ci",
    "cell_rng",
    "replication_rng",
    "replication_seed",
    "run_replications",
    "reduce_replications",
]
