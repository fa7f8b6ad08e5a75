"""Shared plumbing of the experiment runners: seeding, cells, and sweeps."""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..engine import (
    Interference,
    Machine,
    NO_INTERFERENCE,
    default_backend,
    set_default_backend,
)
from ..io_models import IOApproach, IterationResult, PreparedIteration, resolve_approaches
from ..serve import SolveService
from ..stats.replication import cell_rng, replication_rng, run_replications, serve_prepared
from ..util import env_int, seed_key

__all__ = [
    "run_iterations",
    "run_all_approaches",
    "run_replicated_approaches",
    "run_sweep",
    "cell_rng",
    "approach_seed_key",
    "iteration_period",
    "DEFAULT_INTERFERENCE",
]

DEFAULT_INTERFERENCE = Interference()


def _validate_replications(replications: int) -> None:
    """Every experiment runner rejects a non-positive replication count
    eagerly, instead of silently producing an empty or single-run table."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")


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


def run_iterations(
    approach: IOApproach,
    machine: Machine,
    ranks: int,
    iterations: int,
    data_per_rank: float,
    rng: np.random.Generator,
    interference: Interference = NO_INTERFERENCE,
) -> list[IterationResult]:
    """Run ``iterations`` simulated timesteps of one approach."""
    return [
        approach.run_iteration(machine, ranks, data_per_rank, rng, interference)
        for _ in range(iterations)
    ]


def _effective_interference(
    with_interference: bool, interference: Interference | None
) -> Interference:
    """The model a run faces: the given one when enabled, else a quiet system."""
    if not with_interference:
        return NO_INTERFERENCE
    return DEFAULT_INTERFERENCE if interference is None else interference


def run_all_approaches(
    machine: Machine,
    ranks: int,
    iterations: int,
    data_per_rank: float,
    seed: int,
    with_interference: bool,
    approaches: Sequence[IOApproach | str] | None = None,
    interference: Interference | None = None,
) -> Iterator[tuple[IOApproach, list[IterationResult]]]:
    """Run a selection of approaches at one scale with the standard seeding.

    ``approaches`` may mix instances and registered names; ``None`` selects
    the paper's original three.  ``interference`` overrides the default
    model when ``with_interference`` is set (e.g. a scenario's own).
    """
    effective = _effective_interference(with_interference, interference)
    for approach in resolve_approaches(approaches):
        rng = cell_rng(seed, ranks, approach)
        yield approach, run_iterations(
            approach, machine, ranks, iterations, data_per_rank, rng, effective
        )


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
    batched: bool = True,
) -> Iterator[tuple[IOApproach, list[list[IterationResult]]]]:
    """Replicated :func:`run_all_approaches`: R independently-seeded copies.

    Yields ``(approach, replications)`` where the inner value holds one
    result list per replication (replication 0 being the historical
    stream).  Replications solve batched through the engine's stacked
    :func:`~repro.engine.solve_many` path by default; ``batched=False``
    keeps the serial ground-truth loop.
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
                batched=batched,
            ),
        )


def _run_cell(
    args: tuple[
        Machine,
        int,
        int,
        float,
        int,
        Interference,
        IOApproach,
        str | None,
        int | None,
        bool,
    ],
) -> tuple[int, str, list[IterationResult] | list[list[IterationResult]]]:
    """One (scale, approach) cell of a sweep; module-level so it pickles."""
    (
        machine,
        ranks,
        iterations,
        data_per_rank,
        seed,
        interference,
        approach,
        backend,
        replications,
        batched,
    ) = args
    if backend is not None:
        set_default_backend(backend)
    results: list[IterationResult] | list[list[IterationResult]]
    if replications is None:
        rng = cell_rng(seed, ranks, approach)
        results = run_iterations(
            approach, machine, ranks, iterations, data_per_rank, rng, interference
        )
    else:
        results = run_replications(
            approach,
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            replications,
            interference=interference,
            batched=batched,
        )
    return ranks, approach.name, results


def _resolve_jobs(n_jobs: int | None) -> int:
    if n_jobs is None:
        n_jobs = env_int(os.environ, "REPRO_JOBS", default=1)
    return max(1, n_jobs)


def _run_sweep_serve(
    service: SolveService,
    machine: Machine,
    scales: Sequence[int],
    iterations: int,
    data_per_rank: float,
    seed: int,
    interference: Interference,
    approaches: Sequence[IOApproach],
    replications: int | None,
) -> dict[tuple[int, str], list[IterationResult] | list[list[IterationResult]]]:
    """The sweep's solve-service path: one flush covers every cell.

    Every cell's iterations are *prepared* first — consuming each cell's
    rng stream in exactly the order the inline path would — and
    submitted to the service; a single flush then dedups, serves cache
    hits, and coalesces all remaining cells into stacked solves.
    Because the service is bit-identical to per-request solving and the
    rng streams are pure functions of ``(seed, ranks, approach[, r])``,
    the sweep's output matches the inline path byte for byte.
    """
    prepared: list[PreparedIteration] = []
    spans: list[tuple[int, str, int, int]] = []
    for ranks in scales:
        for approach in approaches:
            start = len(prepared)
            if replications is None:
                rng = cell_rng(seed, ranks, approach)
                prepared.extend(
                    approach.prepare_iteration(machine, ranks, data_per_rank, rng, interference)
                    for _ in range(iterations)
                )
            else:
                rngs = [replication_rng(seed, ranks, approach, r) for r in range(replications)]
                prepared.extend(
                    approach.prepare_iteration(machine, ranks, data_per_rank, rng, interference)
                    for rng in rngs
                    for _ in range(iterations)
                )
            spans.append((ranks, approach.name, start, len(prepared)))
    final = serve_prepared(service, machine, prepared)
    sweep: dict[tuple[int, str], list[IterationResult] | list[list[IterationResult]]] = {}
    for ranks, name, start, stop in spans:
        cell = final[start:stop]
        if replications is None:
            sweep[(ranks, name)] = cell
        else:
            sweep[(ranks, name)] = [
                cell[r * iterations : (r + 1) * iterations] for r in range(replications)
            ]
    return sweep


def run_sweep(
    machine: Machine,
    scales: Sequence[int],
    iterations: int,
    data_per_rank: float,
    seed: int,
    with_interference: bool,
    approaches: Sequence[IOApproach | str] | None = None,
    n_jobs: int | None = None,
    interference: Interference | None = None,
    replications: int | None = None,
    batched: bool = True,
    service: SolveService | None = None,
) -> dict[tuple[int, str], list[IterationResult] | list[list[IterationResult]]]:
    """Run every (scale, approach) cell, optionally across a process pool.

    The per-cell rng derivation (:func:`cell_rng`) makes every cell
    independent of execution order, so the result is bit-identical whether
    the sweep runs serially or on ``n_jobs`` worker processes
    (``REPRO_JOBS`` when ``None``).  With ``replications`` set, every cell
    value becomes one result list per replication — all of a cell's
    replications run inside one worker (batched through the stacked
    engine path), so partitioning across processes still cannot change a
    single bit of the output.

    With ``service`` set, the sweep routes through the memoized solve
    service instead of the ``n_jobs`` pool: every cell is prepared up
    front and one flush solves them all, deduplicated and coalesced —
    bit-identical again, and repeated cells across sweeps cost one cache
    lookup.
    """
    resolved = resolve_approaches(approaches)
    backend = default_backend()
    effective = _effective_interference(with_interference, interference)
    if service is not None:
        return _run_sweep_serve(
            service,
            machine,
            scales,
            iterations,
            data_per_rank,
            seed,
            effective,
            resolved,
            replications,
        )
    cells = [
        (
            machine,
            ranks,
            iterations,
            data_per_rank,
            seed,
            effective,
            approach,
            backend,
            replications,
            batched,
        )
        for ranks in scales
        for approach in resolved
    ]
    n_jobs = min(_resolve_jobs(n_jobs), len(cells)) if cells else 1
    outcomes: Iterable[tuple[int, str, list[IterationResult] | list[list[IterationResult]]]]
    if n_jobs <= 1:
        outcomes = map(_run_cell, cells)
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    return {(ranks, name): results for ranks, name, results in outcomes}
