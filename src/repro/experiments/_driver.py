"""Shared plumbing of the experiment runners: seeding, cells, and sweeps."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from ..engine import Interference, Machine, NO_INTERFERENCE
from ..io_models import IOApproach, IterationResult, resolve_approaches
from ..stats import reduce_replications
from ..stats.replication import cell_rng, run_replications
from ..table import Table

__all__ = [
    "run_replicated_approaches",
    "replication_table",
    "cell_rng",
    "iteration_period",
    "DEFAULT_INTERFERENCE",
]

DEFAULT_INTERFERENCE = Interference()


def _validate_arguments(
    replications: int = 1,
    *,
    ranks: int = 1,
    scales: Sequence[int] | None = None,
    approaches: Sequence[IOApproach | str] | None = None,
    intensities: Sequence[str] | None = None,
    compute_time: float = 0.0,
    iterations: int = 1,
    wave_size: int = 1,
) -> None:
    """Every experiment runner rejects, eagerly and by name, an argument no
    run can use, instead of producing an empty, single-run or meaningless
    table or failing deep inside the engine.  ``None`` is no selection
    (``approaches=None`` is the paper's three); an empty one is an error."""
    for name, count in dict(
        replications=replications, ranks=ranks, iterations=iterations, wave_size=wave_size
    ).items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    for name, selection in dict(
        scales=scales, approaches=approaches, intensities=intensities
    ).items():
        if selection is not None and len(selection) == 0:
            raise ValueError(f"{name} must not be empty")
    for index, rung in enumerate(scales or ()):
        if rung < 1:
            raise ValueError(f"scales[{index}] must be >= 1, got {rung}")
    # A plain compare, which NaN fails.
    if not 0.0 <= compute_time < math.inf:
        raise ValueError(f"compute_time must be finite and >= 0, got {compute_time}")


def iteration_period(compute_time: float, visible_s: float, backend_wall_s: float) -> float:
    """Turnover time of one simulated iteration.

    An iteration cannot turn over faster than its data drains to the OSTs:
    an asynchronous backend write that outlasts the compute phase stalls
    the next hand-off (backpressure), so the period is bounded below by
    the backend wall time.
    """
    return max(compute_time + visible_s, backend_wall_s)


def replication_table(
    rows: Iterable[tuple[int, dict[str, Any]]],
    group_by: Sequence[str],
    replications: int,
    seed: int,
) -> Table:
    """A runner's table from its ``(replication, row)`` pairs.

    One replication gives the plain rows.  More tag each row with its
    ``replication`` index and reduce every ``group_by`` group to one row
    of CI column families.  The pairs come in the runner's row order,
    which fixes the group order and the bootstrap CIs.
    """
    if replications == 1:
        return Table(row for _, row in rows)
    tagged = Table({**row, "replication": index} for index, row in rows)
    return reduce_replications(tagged, group_by, seed=seed)


def run_replicated_approaches(
    machine: Machine,
    ranks: int,
    iterations: int,
    data_per_rank: float,
    seed: int,
    replications: int,
    approaches: Sequence[IOApproach | str] | None = None,
    interference: Interference | None = None,
) -> Iterator[tuple[IOApproach, int, list[IterationResult]]]:
    """Run a selection of approaches at one scale, R seeded copies each.

    Yields ``(approach, replication, results)``, one iteration result
    list per replication, cell by cell.  Replication 0 is the historical
    stream, so a single run is replication 0 of a one-deep stack.
    Replications solve batched through the engine's stacked
    :func:`~repro.engine.solve_many` path, and each cell's results are
    dropped before the next cell is solved, so a sweep whose caller
    reduces as it goes holds one cell's results.  ``approaches`` may mix
    instances and registered names; ``None`` selects the paper's
    original three.  ``interference=None`` is a quiet file system.
    """
    if interference is None:
        interference = NO_INTERFERENCE
    for approach in resolve_approaches(approaches):
        reps = run_replications(
            approach,
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            replications,
            interference=interference,
        )
        yield from ((approach, index, results) for index, results in enumerate(reps))
        del reps
