"""The replication driver: N independently-seeded runs of one cell.

One *cell* is ``(machine, ranks, approach)`` — the unit every experiment
sweeps over.  :func:`run_replications` runs ``replications`` copies of a
cell, each on its own rng stream, and returns the per-replication
iteration results.  Two execution paths produce bit-identical output:

* **serial** (``batched=False``) — the plain loop: replication ``r``
  calls :meth:`~repro.io_models.IOApproach.run_iteration` ``iterations``
  times on its own generator.  This is the ground-truth path (and the
  baseline the perf guard measures the batched path against).  No
  experiment runner chooses between the two: this is the one switch.
* **batched** (the default) — every replication *prepares* its
  iterations (consuming its rng stream in exactly the serial order),
  then all R × iterations request batches are stacked along the virtual
  OST axis and handed to one :func:`~repro.engine.solve_many` call, which
  solves them in engine calls of bounded size, and finally each prepared
  iteration is finalized from its own slice.  Python touches each
  iteration once; numpy crunches the stack a few wide calls at a time.

Seeding: replication ``r`` of a cell draws from
``cell_rng(replication_seed(seed, r), ranks, approach)`` — the same
crc32 name-hash derivation the sweeps already use, extended by the
replication identity.  Replication 0 is the historical single-run
stream, and every stream is a pure function of
``(seed, r, ranks, approach name)``, so results are bit-identical no
matter how replications are batched.
"""

from __future__ import annotations

import numpy as np

from ..engine import Interference, Machine, NO_INTERFERENCE, resolve_machine, solve_many
from ..io_models import IOApproach, IterationPlan, IterationResult, resolve_approach
from ..util import replication_seed, seed_key

__all__ = ["cell_rng", "replication_rng", "run_replications", "solve_prepared"]


def cell_rng(seed: int, ranks: int, approach: IOApproach | str) -> np.random.Generator:
    """The rng of one (seed, scale, approach) cell of a sweep.

    Derived from ``[seed, ranks, crc32(approach.name)]``, so every cell is
    reproducible on its own, independent of which other scales or
    approaches run alongside it.
    """
    name = approach if isinstance(approach, str) else approach.name
    return np.random.default_rng([seed, ranks, seed_key(name)])


def replication_rng(
    seed: int, ranks: int, approach: IOApproach | str, replication: int
) -> np.random.Generator:
    """The rng of replication ``replication`` of a cell (0 = historical)."""
    return cell_rng(replication_seed(seed, replication), ranks, approach)


def run_replications(
    approach: IOApproach | str,
    machine: Machine | str,
    ranks: int,
    iterations: int,
    data_per_rank: float,
    seed: int,
    replications: int,
    *,
    interference: Interference = NO_INTERFERENCE,
    batched: bool = True,
) -> list[list[IterationResult]]:
    """Run ``replications`` independently-seeded copies of one cell.

    Returns ``replications`` lists of ``iterations`` results.  The
    batched path hands every replication's request batches to one
    :func:`~repro.engine.solve_many` call; its output is bit-identical
    to the serial path (which remains available as ground truth).
    """
    machine = resolve_machine(machine)
    approach = resolve_approach(approach)
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    rngs = [replication_rng(seed, ranks, approach, r) for r in range(replications)]
    if not batched:
        return [
            [
                approach.run_iteration(machine, ranks, data_per_rank, rng, interference)
                for _ in range(iterations)
            ]
            for rng in rngs
        ]
    prepared = [
        approach.prepare_iteration(machine, ranks, data_per_rank, rng, interference)
        for rng in rngs
        for _ in range(iterations)
    ]
    final = solve_prepared(machine, prepared)
    return [final[r * iterations : (r + 1) * iterations] for r in range(replications)]


def solve_prepared(machine: Machine, prepared: list[IterationPlan]) -> list[IterationResult]:
    """Each prepared iteration's result, in order, from one ``solve_many``
    call per write class, which caps the size of each engine call: bit for
    bit what solving each iteration alone would give."""
    # One approach emits one write class, but group defensively so a
    # custom approach mixing classes still solves correctly.
    results: list[IterationResult | None] = [None] * len(prepared)
    for large_writes in sorted({p.large_writes for p in prepared}):
        index = [i for i, p in enumerate(prepared) if p.large_writes == large_writes]
        done = solve_many(
            machine,
            [prepared[i].batch for i in index],
            backgrounds=[prepared[i].background for i in index],
            large_writes=large_writes,
        )
        for i, times in zip(index, done, strict=True):
            results[i] = prepared[i].finalize(times)
    final = [result for result in results if result is not None]
    assert len(final) == len(prepared)
    return final
