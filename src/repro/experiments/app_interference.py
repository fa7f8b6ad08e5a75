"""E9: cross-application interference (beyond the paper's evaluation).

The paper's headline — dedicating one core per node to I/O removes the
jitter the file system injects into the simulation — is most interesting
when the interference is not an abstract background model but *another
application* checkpointing in bursts against the same OSTs.  E9 sweeps
background workload intensity x I/O approach: a foreground application
runs the usual iterated compute-then-write cycle with each approach while
a bursty file-per-process background application (an inhomogeneous-
Poisson arrival process) contends for the shared OSTs, and the table
reports the foreground's per-rank write time and variability next to the
background's.

The expected shape: the synchronous approaches' visible write time grows
and spreads with background intensity, while the Damaris-visible cost (a
node-local memory copy) does not move at all — the dedicated core absorbs
the contention in its overlapped backend write instead.

Every (intensity, approach) cell is seeded from registry names via the
crc32 scheme, so a cell's rows do not depend on which other cells run,
and the foreground's random stream is *shared* across intensities — each
approach faces the identical foreground under every background level, a
controlled comparison.  Each replication composes all its cells in one
:func:`~repro.workloads.run_compositions` call, so each distinct
application (three foregrounds and two background levels by default) is
drawn once per seed; each cell still solves alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from ..engine import KRAKEN, Machine, resolve_machine
from ..io_models import IOApproach, resolve_approaches
from ..table import Table
from ..util import MB, replication_seed
from ..workloads import CompositionResult, Workload, run_compositions
from ._driver import _validate_arguments, iteration_period, replication_table

__all__ = [
    "INTENSITY_LEVELS",
    "run_app_interference",
    "check_app_interference_shape",
]

#: Background intensity levels: fraction of the background template's ranks
#: that actually run.  ``off`` composes the foreground alone.
INTENSITY_LEVELS: dict[str, float] = {"off": 0.0, "light": 0.25, "heavy": 1.0}


def _default_background(ranks: int, data_per_rank: float) -> Workload:
    """The default contender: a bursty file-per-process checkpointer."""
    return Workload(
        app="background",
        ranks=ranks,
        data_per_rank=data_per_rank,
        arrival="burst",
        approach="file-per-process",
    )


def _foreground(ranks: int, data_per_rank: float, approach: str) -> Workload:
    """The simulation under test: periodic checkpoints through ``approach``."""
    return Workload(
        app="sim",
        ranks=ranks,
        data_per_rank=data_per_rank,
        arrival="periodic",
        approach=approach,
    )


def _scaled_background(background: Workload, fraction: float) -> Workload | None:
    if fraction <= 0.0:
        return None
    return background.with_overrides(ranks=max(1, round(background.ranks * fraction)))


def _row(
    intensity: str,
    approach_name: str,
    contender: Workload | None,
    outcome: CompositionResult,
    compute_time: float,
) -> dict[str, Any]:
    """One (intensity, approach) cell's row from one replication's composition."""
    fg = outcome.results["sim"]
    samples = np.concatenate([r.visible_times for r in fg])
    phases = [float(r.visible_times.max()) for r in fg]
    io_mean = float(samples.mean())
    backend_mean = float(np.mean([r.backend_wall_s for r in fg]))
    row: dict[str, Any] = {
        "intensity": intensity,
        "approach": approach_name,
        "bg_ranks": contender.ranks if contender is not None else 0,
        "io_mean_s": io_mean,
        "io_std_s": float(samples.std()),
        "io_p99_s": float(np.percentile(samples, 99)),
        "io_phase_mean_s": float(np.mean(phases)),
        "backend_wall_mean_s": backend_mean,
        "iteration_period_s": iteration_period(compute_time, float(np.mean(phases)), backend_mean),
    }
    if contender is not None:
        bg_samples = np.concatenate([r.visible_times for r in outcome.results[contender.app]])
        row["bg_io_mean_s"] = float(bg_samples.mean())
        row["bg_io_p99_s"] = float(np.percentile(bg_samples, 99))
    return row


def run_app_interference(
    ranks: int,
    iterations: int = 4,
    data_per_rank: float = 45 * MB,
    compute_time: float = 120.0,
    machine: Machine | str = KRAKEN,
    seed: int = 0,
    approaches: Sequence[IOApproach | str] | None = None,
    intensities: tuple[str, ...] = ("off", "light", "heavy"),
    background: Workload | None = None,
    trace_dir: str | Path | None = None,
    replications: int = 1,
) -> Table:
    """Sweep background intensity x approach; per-app write time and spread.

    ``background`` overrides the bursty file-per-process contender (its
    ``ranks`` field is the ``heavy`` level; lighter intensities scale it
    down).  When ``trace_dir`` is set, every cell records its request
    trace there as ``e9-<intensity>-<approach>.jsonl`` for exact replay
    (replication 0's when replicated).
    """
    machine = resolve_machine(machine)
    _validate_arguments(replications, ranks=ranks, compute_time=compute_time, iterations=iterations)
    if compute_time <= 0.0:
        # Foreground and contender arrivals spread over the compute phase.
        raise ValueError(f"compute_time must be > 0, got {compute_time}")
    for intensity in intensities:
        if intensity not in INTENSITY_LEVELS:
            raise ValueError(f"unknown intensity {intensity!r}; known: {sorted(INTENSITY_LEVELS)}")
    if background is None:
        background = _default_background(ranks, data_per_rank)
    names = [a.name for a in resolve_approaches(approaches)]
    labels = [(intensity, name) for intensity in intensities for name in names]
    contenders = [
        _scaled_background(background, INTENSITY_LEVELS[intensity]) for intensity, _ in labels
    ]
    cells = [
        [_foreground(ranks, data_per_rank, name)] + ([contender] if contender is not None else [])
        for (_, name), contender in zip(labels, contenders, strict=True)
    ]
    rows: list[list[tuple[int, dict[str, Any]]]] = [[] for _ in cells]
    for index in range(replications):
        outcomes = run_compositions(
            machine,
            cells,
            iterations,
            period=compute_time,
            seed=replication_seed(seed, index),
        )
        for cell_rows, (intensity, name), contender, outcome in zip(
            rows, labels, contenders, outcomes, strict=True
        ):
            if trace_dir is not None and index == 0:
                # Replication 0 is the historical stream; its traces are
                # the ones a replay reproduces bit for bit.
                outcome.trace.save(Path(trace_dir) / f"e9-{intensity}-{name}.jsonl")
            cell_rows.append((index, _row(intensity, name, contender, outcome, compute_time)))
    # Rows in (intensity, approach, replication) order, which fixes the CIs.
    return replication_table(
        chain.from_iterable(rows), ("intensity", "approach"), replications, seed
    )


def check_app_interference_shape(table: Table) -> None:
    """Assert the cross-application jitter claim."""
    intensities = list(dict.fromkeys(table.column("intensity")))
    assert len(intensities) >= 2, "need at least two intensity levels"
    quiet, busy = intensities[0], intensities[-1]

    # The Damaris-visible cost is a node-local copy: another application
    # hammering the OSTs cannot move it, let alone spread it.  (Like the
    # loop below, tolerate subset selections that exclude the approach.)
    damaris = {row["intensity"]: row for row in table.where(approach="damaris")}
    if damaris:
        means = [damaris[i]["io_mean_s"] for i in intensities]
        assert max(means) < 1.05 * min(means), means
        assert all(damaris[i]["io_std_s"] < 0.05 for i in intensities), damaris

    # The synchronous approaches pay for the contention in full view.
    for name in ("file-per-process", "collective"):
        rows = {row["intensity"]: row for row in table.where(approach=name)}
        if not rows:
            continue
        assert rows[busy]["io_mean_s"] > 1.1 * rows[quiet]["io_mean_s"], (name, rows)
        # ...and the background's own writes are visible in the busy cells.
        assert rows[busy].get("bg_io_mean_s", 0.0) > 0.0, (name, rows)
