"""E7 (paper §V.C.1): in-situ visualisation — synchronous vs dedicated cores.

Reproduces (a) the growing, simulation-visible cost of synchronous VisIt-like
coupling versus the flat, negligible cost of the Damaris coupling on the
Nek5000-like workload, and (b) the iteration-skipping behaviour when the
analysis is slower than the simulation's compute step.
"""

from ._common import bench_table


def test_bench_e7_insitu_scaling(benchmark):
    bench_table(benchmark, "e7", 0)


def test_bench_e7_iteration_skipping(benchmark):
    row = bench_table(benchmark, "e7", 1)[0]
    # The analysis cannot keep up, so iterations are dropped rather than the
    # simulation being stalled: the run time stays close to pure compute.
    assert row["skipped"] > 0
    assert row["run_time_s"] < 1.5 * row["ideal_compute_time_s"]
