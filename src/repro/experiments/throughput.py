"""E3 (paper §IV.C): aggregate write throughput of the three approaches.

On Kraken the paper measures ~0.5 GB/s for collective I/O (stripe-lock
plateau), under 1.7 GB/s for file-per-process (seek thrash across many
interleaved streams), and up to ~10 GB/s with Damaris, whose dedicated
cores write few large sequential chunks.  Throughput here is the data an
approach makes durable divided by the wall time its backend needed.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..engine import KRAKEN, Interference, Machine, resolve_machine
from ..io_models import IOApproach, IterationResult
from ..table import Table
from ..util import GB, MB
from ._driver import (
    _validate_arguments,
    iteration_period,
    replication_table,
    run_replicated_approaches,
)

__all__ = ["run_throughput", "check_throughput_shape"]


def _throughput_row(
    name: str,
    ranks: int,
    results: Sequence[IterationResult],
    compute_time: float,
    iterations: int,
) -> dict[str, Any]:
    throughputs = [r.bytes_written / r.backend_wall_s for r in results]
    visible_mean = float(np.mean([r.visible_times.mean() for r in results]))
    backend_mean = float(np.mean([r.backend_wall_s for r in results]))
    period = iteration_period(compute_time, visible_mean, backend_mean)
    return {
        "approach": name,
        "ranks": ranks,
        "throughput_gb_s": float(np.mean(throughputs)) / GB,
        "io_time_s": backend_mean,
        "visible_mean_s": visible_mean,
        "run_time_s": iterations * period,
    }


def run_throughput(
    ranks: int,
    iterations: int = 2,
    data_per_rank: float = 45 * MB,
    compute_time: float = 120.0,
    machine: Machine | str = KRAKEN,
    seed: int = 0,
    approaches: Sequence[IOApproach | str] | None = None,
    interference: Interference | None = None,
    replications: int = 1,
) -> Table:
    machine = resolve_machine(machine)
    _validate_arguments(
        replications,
        ranks=ranks,
        approaches=approaches,
        compute_time=compute_time,
        iterations=iterations,
    )
    rows = (
        (index, _throughput_row(approach.name, ranks, results, compute_time, iterations))
        for approach, index, results in run_replicated_approaches(
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            replications,
            approaches=approaches,
            interference=interference,
        )
    )
    return replication_table(rows, ("approach", "ranks"), replications, seed)


def check_throughput_shape(table: Table) -> None:
    """Assert the paper's ordering and order-of-magnitude gap."""
    by_name = {row["approach"]: row for row in table}
    collective = by_name["collective"]["throughput_gb_s"]
    fpp = by_name["file-per-process"]["throughput_gb_s"]
    damaris = by_name["damaris"]["throughput_gb_s"]

    # Ordering: collective < file-per-process < damaris.
    assert collective < fpp < damaris, (collective, fpp, damaris)
    # Absolute regimes of the paper's Kraken numbers.
    assert collective < 1.0, collective
    assert fpp < 2.5, fpp
    assert damaris > 5.0, damaris
    # Roughly an order of magnitude between collective and dedicated cores.
    assert damaris > 8 * collective, (collective, damaris)
