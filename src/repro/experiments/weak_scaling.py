"""E1 (paper §IV.A): weak scaling of the I/O phase and overall run time.

For each rung of the ladder every approach runs the same iterated
compute-then-write cycle.  The *I/O phase* of an iteration ends when the
last rank unblocks (BSP semantics: nobody computes until everyone is
done writing), so per-iteration phase time is the max over ranks of the
visible time.  The run time is ``iterations * (compute + phase)`` and the
speedup column compares each approach against collective I/O at the same
scale — the paper's ≈3.5x figure for Damaris at 9216 ranks.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..engine import KRAKEN, Interference, Machine, resolve_machine
from ..io_models import IOApproach, IterationResult, resolve_approaches
from ..table import Table
from ..util import MB
from ._driver import (
    _validate_arguments,
    iteration_period,
    replication_table,
    run_replicated_approaches,
)

__all__ = ["run_weak_scaling", "check_scaling_shape"]


def _scaling_row(
    name: str,
    ranks: int,
    results: Sequence[IterationResult],
    iterations: int,
    compute_time: float,
) -> dict[str, Any]:
    """One replication of one cell as its row, speedup aside."""
    phases = [float(r.visible_times.max()) for r in results]
    phase_mean = float(np.mean(phases))
    backend_mean = float(np.mean([r.backend_wall_s for r in results]))
    period = iteration_period(compute_time, phase_mean, backend_mean)
    return {
        "approach": name,
        "ranks": ranks,
        "io_phase_mean_s": phase_mean,
        "io_phase_max_s": float(np.max(phases)),
        "run_time_s": iterations * period,
        "files_created": results[0].files_created,
    }


def run_weak_scaling(
    scales: Sequence[int],
    iterations: int = 2,
    data_per_rank: float = 45 * MB,
    compute_time: float = 300.0,
    machine: Machine | str = KRAKEN,
    seed: int = 0,
    approaches: Sequence[IOApproach | str] | None = None,
    interference: Interference | None = None,
    replications: int = 1,
) -> Table:
    machine = resolve_machine(machine)
    scales = list(scales)
    _validate_arguments(
        replications,
        scales=scales,
        approaches=approaches,
        compute_time=compute_time,
        iterations=iterations,
    )
    names = [a.name for a in resolve_approaches(approaches)]
    # Each replication of a cell shrinks to its row as it arrives, so the
    # sweep holds one cell's per-client times at a time.
    cells: dict[tuple[int, str, int], dict[str, Any]] = {}
    for ranks in scales:
        for approach, index, results in run_replicated_approaches(
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            replications,
            approaches=approaches,
            interference=interference,
        ):
            row = _scaling_row(approach.name, ranks, results, iterations, compute_time)
            cells[(ranks, approach.name, index)] = row
    # Per-replication speedups compare same-replication runs, so the
    # reduced speedup column is a genuine paired statistic.
    rows: list[tuple[int, dict[str, Any]]] = []
    for index in range(replications):
        for ranks in scales:
            cut = [cells[(ranks, name, index)] for name in names]
            # Speedup relative to collective I/O at the same scale (when it ran).
            collective_run = next(
                (r["run_time_s"] for r in cut if r["approach"] == "collective"), None
            )
            for row in cut:
                if collective_run is not None:
                    row = {**row, "speedup_vs_collective": collective_run / row["run_time_s"]}
                rows.append((index, row))
    return replication_table(rows, ("approach", "ranks"), replications, seed)


def check_scaling_shape(table: Table) -> None:
    """Assert the qualitative shape of the paper's weak-scaling figure."""
    approaches = set(table.column("approach"))
    assert approaches >= {"file-per-process", "collective", "damaris"}, approaches

    ladder = sorted(set(table.column("ranks")))
    assert len(ladder) >= 2, "need at least two scales to talk about scaling"

    # The synchronous approaches' I/O phase grows with scale...
    for name in ("collective", "file-per-process"):
        phases = table.where(approach=name).sort_by("ranks").column("io_phase_mean_s")
        assert all(b > a for a, b in zip(phases, phases[1:], strict=False)), (name, phases)

    # ...while the Damaris-visible phase is flat and negligible.
    damaris = table.where(approach="damaris").sort_by("ranks")
    phases = damaris.column("io_phase_mean_s")
    assert max(phases) < 1.0, phases
    assert max(phases) - min(phases) < 0.2, phases

    # At the top of the ladder the gap is at least an order of magnitude and
    # the overall speedup is material.
    top = ladder[-1]
    collective_top = table.where(approach="collective", ranks=top)[0]
    damaris_top = table.where(approach="damaris", ranks=top)[0]
    assert collective_top["io_phase_mean_s"] > 20 * damaris_top["io_phase_mean_s"]
    assert damaris_top["speedup_vs_collective"] > 1.5
    # File-per-process floods the namespace: one file per rank per iteration.
    fpp_top = table.where(approach="file-per-process", ranks=top)[0]
    assert fpp_top["files_created"] == top
