"""E4 (paper §IV.D): the dedicated cores are idle 92%-99% of the time."""

from ._common import bench_table


def test_bench_e4_idle_time(benchmark):
    table = bench_table(benchmark, "e4")
    # Idle fraction should not degrade as the simulation scales out.
    idles = table.sort_by("ranks").column("idle_fraction")
    assert idles[-1] >= idles[0] - 0.05
