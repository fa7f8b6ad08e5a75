"""E4 (paper §IV.D): the dedicated cores are idle 92%-99% of the time.

A dedicated core's busy time per iteration is the shared-memory ingest of
its node's client data plus its asynchronous write to the OSTs; everything
else of the ``compute + copy`` period is spare time available for in-situ
processing (compression, visualisation, scheduling).  Because one core
writes one large sequential chunk per node, the busy time barely grows
with scale and the idle fraction holds up across the ladder.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice
from typing import Any

import numpy as np

from ..engine import KRAKEN, Machine, resolve_machine
from ..io_models import DedicatedCores
from ..stats.replication import solve_prepared
from ..table import Table
from ..util import MB, replication_seed
from ._driver import _validate_arguments, iteration_period, replication_table

__all__ = ["run_spare_time", "check_spare_time_shape"]


def run_spare_time(
    scales: Sequence[int],
    iterations: int = 3,
    data_per_rank: float = 45 * MB,
    compute_time: float = 300.0,
    machine: Machine | str = KRAKEN,
    seed: int = 0,
    replications: int = 1,
) -> Table:
    machine = resolve_machine(machine)
    scales = list(scales)
    _validate_arguments(
        replications, scales=scales, compute_time=compute_time, iterations=iterations
    )
    approach = DedicatedCores()
    rows: list[tuple[int, dict[str, Any]]] = []
    for ranks in scales:
        # Replication 0 keeps the experiment's historical [seed, ranks]
        # stream; further replications shift the seed by name-hash.
        rngs = [
            np.random.default_rng([replication_seed(seed, index), ranks])
            for index in range(replications)
        ]
        plans = (
            approach.prepare_iteration(machine, ranks, data_per_rank, rng)
            for rng in rngs
            for _ in range(iterations)
        )
        results = solve_prepared(machine, plans)
        nodes = machine.nodes_for(ranks)
        # Ingest of the clients' shared-memory copies plus the async write.
        ingest = approach.node_bytes(machine, ranks, data_per_rank) / machine.shm_bandwidth
        for index in range(replications):
            # One replication's results at a time: the rows read only their means.
            replication = list(islice(results, iterations))
            busy = ingest + float(np.mean([r.backend_busy_s for r in replication]))
            copy = float(np.mean([r.visible_times.mean() for r in replication]))
            # Backpressure bound: with a compute phase shorter than the core's
            # busy time the idle fraction bottoms out at ~0, never negative.
            period = iteration_period(compute_time, copy, busy)
            row: dict[str, Any] = {
                "ranks": ranks,
                "nodes": nodes,
                "busy_mean_s": busy,
                "period_s": period,
                "idle_fraction": 1.0 - busy / period,
            }
            rows.append((index, row))
    return replication_table(rows, ("ranks", "nodes"), replications, seed)


def check_spare_time_shape(table: Table) -> None:
    """Assert the paper's 92%-99% idle window at every scale."""
    for row in table:
        idle = row["idle_fraction"]
        assert 0.92 <= idle <= 0.999, row.as_dict()
        assert row["busy_mean_s"] < 0.08 * row["period_s"], row.as_dict()
