"""E3 (paper §IV.C): aggregate write throughput of the three approaches.

Paper (Kraken): ~0.5 GB/s collective, <1.7 GB/s file-per-process, up to
~10 GB/s with Damaris.  The shape reproduced here is the ordering and the
roughly order-of-magnitude gap between collective I/O and the dedicated-core
approach; the absolute Damaris number approaches the paper's value only at
the full 9216-rank scale (REPRO_FULL_SCALE=1).
"""

from ._common import bench_table


def test_bench_e3_throughput(benchmark):
    bench_table(benchmark, "e3")
