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
from ..util import seed_key

__all__ = [
    "run_replicated_approaches",
    "run_sweep",
    "replication_table",
    "cell_rng",
    "approach_seed_key",
    "iteration_period",
    "DEFAULT_INTERFERENCE",
]

DEFAULT_INTERFERENCE = Interference()


def _validate_arguments(
    replications: int = 1,
    *,
    ranks: int = 1,
    scales: Sequence[int] = (),
    compute_time: float = 0.0,
    iterations: int = 1,
    wave_size: int = 1,
) -> None:
    """Every experiment runner rejects, eagerly and by name, an argument no
    run can use, instead of producing an empty, single-run or meaningless
    table or failing deep inside the engine."""
    for name, count in dict(
        replications=replications, ranks=ranks, iterations=iterations, wave_size=wave_size
    ).items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    for index, rung in enumerate(scales):
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


def approach_seed_key(name: str) -> int:
    """Stable integer identity of an approach for rng derivation.

    A CRC of the approach *name* — not its position in the selection — so
    adding, removing or reordering approaches can never silently shift an
    existing experiment's random stream.
    """
    return seed_key(name)


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


def _effective_interference(
    with_interference: bool, interference: Interference | None
) -> Interference:
    """The model a run faces: the given one when enabled, else a quiet system."""
    if not with_interference:
        return NO_INTERFERENCE
    return DEFAULT_INTERFERENCE if interference is None else interference


def run_replicated_approaches(
    machine: Machine,
    ranks: int,
    iterations: int,
    data_per_rank: float,
    seed: int,
    with_interference: bool,
    replications: int,
    approaches: Sequence[IOApproach | str] | None = None,
    interference: Interference | None = None,
) -> Iterator[tuple[IOApproach, list[list[IterationResult]]]]:
    """Run a selection of approaches at one scale, R seeded copies each.

    Yields ``(approach, replications)`` where the inner value holds one
    result list per replication.  Replication 0 is the historical stream,
    so a single run is replication 0 of a one-deep stack.  Replications
    solve batched through the engine's stacked
    :func:`~repro.engine.solve_many` path.  ``approaches`` may mix
    instances and registered names; ``None`` selects the paper's original
    three.  ``interference`` overrides the default model when
    ``with_interference`` is set (e.g. a scenario's own).
    """
    effective = _effective_interference(with_interference, interference)
    for approach in resolve_approaches(approaches):
        yield (
            approach,
            run_replications(
                approach,
                machine,
                ranks,
                iterations,
                data_per_rank,
                seed,
                replications,
                interference=effective,
            ),
        )


def run_sweep(
    machine: Machine,
    scales: Sequence[int],
    iterations: int,
    data_per_rank: float,
    seed: int,
    with_interference: bool,
    approaches: Sequence[IOApproach | str] | None = None,
    interference: Interference | None = None,
    replications: int = 1,
) -> dict[tuple[int, str], list[list[IterationResult]]]:
    """Run every (scale, approach) cell, keyed by ``(ranks, approach name)``.

    Every cell value holds one result list per replication, solved
    through the stacked engine path.  The per-cell rng derivation
    (:func:`cell_rng`) makes every cell independent of which other cells
    run alongside it.
    """
    sweep: dict[tuple[int, str], list[list[IterationResult]]] = {}
    for ranks in scales:
        for approach, reps in run_replicated_approaches(
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            with_interference,
            replications,
            approaches=approaches,
            interference=interference,
        ):
            sweep[(ranks, approach.name)] = reps
    return sweep
