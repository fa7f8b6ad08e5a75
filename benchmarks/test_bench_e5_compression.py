"""E5 (paper §IV.D): ~600% compression on the dedicated cores, no overhead.

The ratio is reproduced on CM1-like fields (smooth disturbances over quiet
backgrounds) and the "no overhead on the simulation" property is checked by
comparing the client-visible write cost with and without the compressing
writer plugin.
"""

from ._common import bench_table


def test_bench_e5_compression(benchmark, tmp_path):
    table = bench_table(benchmark, "e5", output_dir=str(tmp_path))
    # At least one codec should approach the paper's 600% figure.
    ratios = [row["ratio_percent"] for row in table if "ratio_percent" in row.as_dict()]
    assert max(ratios) > 400.0
