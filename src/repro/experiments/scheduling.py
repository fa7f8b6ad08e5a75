"""E6 (paper §IV.D): coordinated I/O scheduling raises aggregate throughput.

When the number of writing nodes exceeds the number of storage targets,
uncoordinated dedicated-core writes interleave several streams on each
OST and pay the seek penalty.  The Damaris schedulers coordinate the
dedicated cores into waves of at most ``wave_size`` concurrent writers
(one per OST when ``wave_size == ost_count``), trading a little
serialisation for clean sequential streams — a net win precisely in the
over-subscribed regime the paper reaches with 768+ nodes on 336 OSTs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..engine import Interference, KRAKEN, Machine, RequestBatch, resolve_machine, solve_many
from ..util import FloatArray, IntArray
from ..io_models import DedicatedCores
from ..table import Table
from ..util import GB, MB, replication_seed
from ._driver import _validate_arguments, replication_table

__all__ = ["run_scheduling", "check_scheduling_shape"]


def _balanced_waves(osts: IntArray, nodes: int, wave_size: int) -> list[list[int]]:
    """Partition writers into waves with at most one stream per OST each.

    Writers are grouped by their target OST, then dealt round-robin: wave
    ``r`` takes each OST's ``r``-th writer.  Oversized rounds are chunked
    to ``wave_size``.
    """
    by_ost: dict[int, list[int]] = {}
    for i in range(nodes):
        by_ost.setdefault(int(osts[i]), []).append(i)
    waves: list[list[int]] = []
    depth = max(len(group) for group in by_ost.values())
    for r in range(depth):
        wave = [group[r] for group in by_ost.values() if len(group) > r]
        for start in range(0, len(wave), wave_size):
            waves.append(wave[start : start + wave_size])
    return waves


def run_scheduling(
    ranks: int,
    machine: Machine | str = KRAKEN,
    wave_size: int | None = None,
    iterations: int = 2,
    data_per_rank: float = 45 * MB,
    compute_time: float = 120.0,
    seed: int = 0,
    interference: Interference | None = None,
    replications: int = 1,
) -> Table:
    machine = resolve_machine(machine)
    if wave_size is None:
        wave_size = machine.ost_count
    _validate_arguments(
        replications,
        ranks=ranks,
        compute_time=compute_time,
        iterations=iterations,
        wave_size=wave_size,
    )
    nodes = machine.nodes_for(ranks)
    node_bytes = DedicatedCores().node_bytes(machine, ranks, data_per_rank)
    total_bytes = node_bytes * nodes

    rows: list[tuple[int, dict[str, Any]]] = []
    for index in range(replications):
        rng = np.random.default_rng([replication_seed(seed, index), ranks, wave_size])
        # Both policies face the same file-system weather and OST placement.
        per_iteration: list[tuple[Any, IntArray]] = []
        for _ in range(iterations):
            background = (
                None if interference is None else interference.sample_background(machine, rng)
            )
            osts = rng.permutation(nodes) % machine.ost_count
            per_iteration.append((background, osts))

        # Unscheduled, every dedicated core fires as soon as its data is
        # ready.  Scheduled, waves of at most wave_size writers go one after
        # the other; the scheduler spreads each OST's writers across waves,
        # so a wave holds at most one stream per OST — that balance is what
        # coordination buys.  The batches are independent: one stacked solve.
        waves = [_balanced_waves(osts, nodes, wave_size) for _, osts in per_iteration]
        batches: list[RequestBatch] = []
        backgrounds: list[FloatArray | None] = []
        for (background, osts), iteration_waves in zip(per_iteration, waves, strict=True):
            for writers in [osts, *(osts[wave] for wave in iteration_waves)]:
                batches.append(RequestBatch(arrival=0.0, ost=writers, nbytes=node_bytes))
                backgrounds.append(background)
        done = iter(solve_many(machine, batches, backgrounds=backgrounds, large_writes=True))
        policy_walls: dict[str, list[float]] = {"unscheduled": [], "scheduled": []}
        for iteration_waves in waves:
            policy_walls["unscheduled"].append(float(next(done).max()))
            wall = 0.0
            for _ in iteration_waves:
                wall += float(next(done).max())
            policy_walls["scheduled"].append(wall)

        for policy, walls in policy_walls.items():
            wall_mean = float(np.mean(walls))
            row: dict[str, Any] = {
                "policy": policy,
                "ranks": ranks,
                "writers": nodes,
                "osts": machine.ost_count,
                "wave_size": wave_size if policy == "scheduled" else nodes,
                "io_time_mean_s": wall_mean,
                "io_time_max_s": float(np.max(walls)),
                "throughput_gb_s": total_bytes / wall_mean / GB,
                # Whether the asynchronous writes stay hidden inside the next
                # compute phase (the point of overlapping them at all).
                "hidden_by_compute": bool(np.max(walls) <= compute_time),
            }
            rows.append((index, row))
    return replication_table(
        rows, ("policy", "ranks", "writers", "osts", "wave_size"), replications, seed
    )


def check_scheduling_shape(table: Table) -> None:
    """Assert that coordination wins in the over-subscribed regime."""
    unscheduled = table.where(policy="unscheduled")[0]
    scheduled = table.where(policy="scheduled")[0]
    # The experiment only makes its point when writers outnumber OSTs.
    assert unscheduled["writers"] > unscheduled["osts"], unscheduled.as_dict()
    gain = scheduled["throughput_gb_s"] / unscheduled["throughput_gb_s"]
    assert gain > 1.05, (gain, scheduled.as_dict(), unscheduled.as_dict())
    assert scheduled["io_time_mean_s"] < unscheduled["io_time_mean_s"]
