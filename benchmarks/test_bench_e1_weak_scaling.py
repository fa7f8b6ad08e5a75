"""E1 (paper §IV.A): weak scaling of the I/O phase and overall speedup.

Regenerates the series behind the paper's claims that the collective-I/O
phase grows into hundreds of seconds and dominates the run time at scale,
that file-per-process floods the namespace, and that Damaris keeps the
visible I/O phase negligible (≈3.5x overall speedup at 9216 ranks).
"""

from ._common import bench_table


def test_bench_e1_weak_scaling(benchmark):
    table = bench_table(benchmark, "e1")
    # The visible Damaris I/O phase must stay flat across the ladder
    # (scale-independence of the shared-memory copy).
    damaris_rows = table.where(approach="damaris").sort_by("ranks")
    phases = damaris_rows.column("io_phase_mean_s")
    assert max(phases) < 1.0
