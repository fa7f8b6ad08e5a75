"""E6 (paper §IV.D): coordinated I/O scheduling raises the aggregate throughput.

The benefit of scheduling appears when the number of writing nodes exceeds
the number of storage targets (their streams interleave and thrash the
disks).  The paper reaches that regime with 768+ nodes on 336 OSTs; the
default benchmark reproduces the same over-subscribed regime at a smaller
absolute scale (96 OSTs, 192 writing nodes) so it completes quickly.
``REPRO_FULL_SCALE=1`` runs the true Kraken configuration instead.
"""

from ._common import bench_table


def test_bench_e6_scheduling(benchmark):
    bench_table(benchmark, "e6")
