"""E8 (paper §V.C.2): instrumentation effort, VisIt-like API vs Damaris.

The paper rewrote the VisIt example simulations against Damaris and found
they needed >100 lines of changes with the VisIt API but <10 with Damaris
(one call per shared variable plus the XML description).  The benchmark
instruments the CM1 proxy against both couplings and counts real source
lines and API calls.
"""

from ._common import bench_table


def test_bench_e8_usability(benchmark, tmp_path):
    table = bench_table(benchmark, "e8", output_dir=str(tmp_path))
    rows = {row["coupling"]: row for row in table}
    damaris = rows["damaris (dedicated cores)"]
    visit = rows["visit-like (synchronous)"]
    # The per-simulation code change with Damaris is an order of magnitude smaller.
    assert visit["code_lines"] / damaris["code_lines"] > 4
