"""E1 (paper §IV.A): weak scaling of the I/O phase and overall speedup.

Regenerates the series behind the paper's claims that the collective-I/O
phase grows into hundreds of seconds and dominates the run time at scale,
that file-per-process floods the namespace, and that Damaris keeps the
visible I/O phase negligible (≈3.5x overall speedup at 9216 ranks).
"""

from repro.experiments import check_scaling_shape, run_weak_scaling

from ._common import print_table, scenario


def test_bench_e1_weak_scaling(benchmark):
    sc = scenario()
    table = benchmark.pedantic(
        run_weak_scaling,
        kwargs={
            "scales": list(sc.ladder),
            "iterations": 2,
            "data_per_rank": sc.data_per_rank,
            "compute_time": 300.0,
            "machine": sc.machine,
            "seed": sc.seed,
        },
        rounds=1,
        iterations=1,
    )
    print_table(table)
    check_scaling_shape(table)
    # The visible Damaris I/O phase must stay flat across the ladder
    # (scale-independence of the shared-memory copy).
    damaris_rows = table.where(approach="damaris").sort_by("ranks")
    phases = damaris_rows.column("io_phase_mean_s")
    assert max(phases) < 1.0
