"""E7 (paper §V.C.1): in-situ visualisation — synchronous vs dedicated cores.

Two behaviours of the Nek5000-like coupling are reproduced:

* **Scaling** — a synchronous VisIt-like coupling runs the rendering and
  reduction inside the simulation loop, so its simulation-visible cost
  grows with the core count; the Damaris coupling's visible cost is the
  flat shared-memory copy, with the analysis running on the dedicated
  cores' spare time.
* **Backpressure** — when the analysis is slower than a compute step, the
  dedicated core simply skips the iterations that arrive while it is busy
  instead of stalling the simulation, so the run time stays close to pure
  compute while a synchronous coupling would pay the analysis in full.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from ..engine import KRAKEN, Machine, resolve_machine
from ..table import Table
from ..util import replication_seed
from ._driver import _validate_arguments, replication_table

__all__ = ["run_insitu_scaling", "run_insitu_backpressure", "check_insitu_shape"]

#: Per-iteration compute step of the Nek5000-like workload (seconds).
NEK_COMPUTE_S = 2.0
#: Bytes of analysis data each core produces per iteration.
NEK_DATA_PER_CORE = 4 * 1024 * 1024


def run_insitu_scaling(
    scales: Sequence[int],
    iterations: int = 3,
    machine: Machine | str = KRAKEN,
    seed: int = 0,
    replications: int = 1,
) -> Table:
    machine = resolve_machine(machine)
    scales = list(scales)
    _validate_arguments(replications, scales=scales, iterations=iterations)
    rows: list[tuple[int, dict[str, Any]]] = []
    for cores in scales:
        for index in range(replications):
            # Per-rung seeding: a row is reproducible from (seed, cores,
            # replication) alone, independent of which other scales run
            # alongside it (replication 0 = the historical stream).
            rng = np.random.default_rng([replication_seed(seed, index), cores])
            # Synchronous VisIt-like coupling: rendering plus an all-to-one
            # reduction inside the loop; grows with the core count.
            sync_samples = 0.02 * cores**0.85 * rng.lognormal(0.0, 0.05, size=iterations)
            # Damaris coupling: the shared-memory copy, flat in the core count.
            copy = NEK_DATA_PER_CORE / machine.shm_bandwidth
            damaris_samples = copy * rng.lognormal(0.0, 0.05, size=iterations)
            for coupling, samples in (
                ("visit-like (synchronous)", sync_samples),
                ("damaris (dedicated cores)", damaris_samples),
            ):
                mean = float(samples.mean())
                row: dict[str, Any] = {
                    "coupling": coupling,
                    "cores": cores,
                    "insitu_mean_s": mean,
                    "run_time_s": iterations * (NEK_COMPUTE_S + mean),
                }
                rows.append((index, row))
    return replication_table(rows, ("coupling", "cores"), replications, seed)


def check_insitu_shape(table: Table) -> None:
    """Assert the growing synchronous cost vs the flat Damaris cost."""
    sync = table.where(coupling="visit-like (synchronous)").sort_by("cores")
    damaris = table.where(coupling="damaris (dedicated cores)").sort_by("cores")
    sync_costs = sync.column("insitu_mean_s")
    damaris_costs = damaris.column("insitu_mean_s")
    assert all(b > a for a, b in zip(sync_costs, sync_costs[1:], strict=False)), sync_costs
    assert max(damaris_costs) - min(damaris_costs) < 0.05, damaris_costs
    assert sync_costs[-1] > 10 * damaris_costs[-1], (sync_costs, damaris_costs)


def run_insitu_backpressure(
    iterations: int = 24,
    compute_time: float = 0.5,
    analysis_time: float = 1.3,
    machine: Machine | str = KRAKEN,
) -> Table:
    """The analysis cannot keep up: iterations are skipped, not awaited.

    All times are simulated clock, not wall clock.  At the end of each
    compute step the client copies its data to shared memory; if the
    dedicated core is still analysing a previous iteration, the new one is
    dropped (the paper's iteration-skipping behaviour) and the simulation
    proceeds immediately either way.
    """
    machine = resolve_machine(machine)
    _validate_arguments(compute_time=compute_time, iterations=iterations)
    copy = NEK_DATA_PER_CORE / machine.shm_bandwidth
    now = 0.0
    core_free_at = 0.0
    analysed = 0
    skipped = 0
    for _ in range(iterations):
        now += compute_time + copy
        if core_free_at <= now:
            analysed += 1
            core_free_at = now + analysis_time
        else:
            skipped += 1
    # The dedicated core finishes its last analysis after the simulation
    # ends, off the critical path.
    run_time = now
    table = Table()
    table.append(
        iterations=iterations,
        analysed=analysed,
        skipped=skipped,
        run_time_s=run_time,
        ideal_compute_time_s=iterations * compute_time,
        # What a synchronous coupling would have cost instead.
        sync_run_time_s=iterations * (compute_time + analysis_time),
    )
    return table
