"""E9 (beyond the paper): cross-application interference.

A foreground application runs each I/O approach while a bursty
file-per-process background application (inhomogeneous-Poisson arrivals)
checkpoints against the same OSTs.  The synchronous approaches' visible
write time grows and spreads with background intensity; the
Damaris-visible cost — a node-local memory copy — does not move at all,
the dedicated core absorbing the contention in its overlapped backend
write instead.
"""

from ._common import bench_table


def test_bench_e9_interference(benchmark):
    table = bench_table(benchmark, "e9")
    # The Damaris-visible cost must not move when another application
    # hammers the shared OSTs: same ~0.1 s copy at every intensity.
    damaris = table.where(approach="damaris")
    means = damaris.column("io_mean_s")
    assert max(means) < 0.5
    assert max(means) - min(means) < 0.01
    # The background's pressure is real: the foreground's asynchronous
    # backend write slows down even though its clients never see it.
    walls = damaris.sort_by("bg_ranks").column("backend_wall_mean_s")
    assert walls[-1] > 2 * walls[0]
