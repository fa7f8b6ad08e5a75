"""E2 (paper §IV.B): hiding the I/O variability.

Regenerates the distribution of the per-rank, per-iteration I/O time under
external file-system interference: wide and unpredictable for the standard
approaches, collapsed to a scale-independent shared-memory copy for Damaris.

The replicated benchmark repeats the experiment over >= 30 independently
seeded copies of every cell (batched through the engine's stacked
multi-replication solve) and applies the statistical acceptance test:
bootstrap confidence intervals must be tight, the Damaris mean must be
seed-stable (CV bound), and the order-of-magnitude gap must hold between
CI bounds — so the paper's claim is demonstrably not a seed artifact.
"""

import pytest

from repro.experiments import check_variability_statistics
from repro.scenario import ScenarioConfig
from repro.table import Table

from ._common import bench_table, scenario

#: E2's tables by scenario.  With ``REPRO_REPLICATIONS`` >= 30 both tests
#: below ask for the same 30-replication run, which then runs once.
_TABLES: dict[ScenarioConfig, Table] = {}


def _e2_table(request: pytest.FixtureRequest, sc: ScenarioConfig) -> Table:
    """E2's table on ``sc``, run (and benchmarked) once per module."""
    if sc not in _TABLES:
        _TABLES[sc] = bench_table(request.getfixturevalue("benchmark"), "e2", sc=sc)
    return _TABLES[sc]


def test_bench_e2_variability(request):
    table = _e2_table(request, scenario())
    # Paper §IV.B: the Damaris-visible write cost is of the order of 0.1 s
    # (a node-local memory copy), independent of the file system's state.
    damaris = table.where(approach="damaris")[0]
    assert damaris["io_mean_s"] < 0.5


def test_bench_e2_variability_statistics(request):
    sc = scenario()
    sc = sc.with_overrides(replications=max(sc.replications, 30))
    # The reduced table keeps the single-run column names for the means,
    # so the qualitative shape check applies unchanged...
    table = _e2_table(request, sc)
    # ...and the replication-grade acceptance test tightens it to CI level.
    check_variability_statistics(table, min_replications=30)
