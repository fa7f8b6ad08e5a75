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
  iterations (consuming its rng stream in exactly the serial order) as
  a stream, and :func:`solve_prepared` stacks them along the virtual OST
  axis one engine call's worth at a time: it draws plans until the next
  would overflow the call, solves those through
  :func:`~repro.engine.solve_many`, finalizes each from its own slice
  and drops them before drawing more.  A run holds one engine call's
  plans, not R replications'; numpy crunches the stack a few wide calls
  at a time.

Seeding: replication ``r`` of a cell draws from
``cell_rng(replication_seed(seed, r), ranks, approach)`` — the same
crc32 name-hash derivation the sweeps already use, extended by the
replication identity.  Replication 0 is the historical single-run
stream, and every stream is a pure function of
``(seed, r, ranks, approach name)``, so results are bit-identical no
matter how replications are batched.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import groupby

import numpy as np

from ..engine import Interference, Machine, NO_INTERFERENCE, resolve_machine, solve_many
from ..engine.batching import stack_chunks
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
    batched path streams every replication's prepared iterations through
    :func:`solve_prepared`; its output is bit-identical to the serial
    path (which remains available as ground truth).
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
    plans = (
        approach.prepare_iteration(machine, ranks, data_per_rank, rng, interference)
        for rng in rngs
        for _ in range(iterations)
    )
    final = list(solve_prepared(machine, plans))
    return [final[r * iterations : (r + 1) * iterations] for r in range(replications)]


def solve_prepared(machine: Machine, plans: Iterable[IterationPlan]) -> Iterator[IterationResult]:
    """Each plan's result, in order: bit for bit what solving each
    iteration alone would give.

    Plans are drawn one engine call's worth at a time, by the packing
    rule of :func:`~repro.engine.batching.stack_chunks`, and each such
    chunk is solved through one ``solve_many`` call: for plans of one
    write class, the engine calls of one ``solve_many`` over the whole
    stream.  A class change starts a new chunk.  A call's plans are
    dropped before the next call's are drawn, and results are made as
    the caller takes them.
    """
    for large_writes, run in groupby(plans, key=lambda plan: plan.large_writes):
        for chunk in stack_chunks(run, lambda plan: len(plan.batch), machine.ost_count):
            done = solve_many(
                machine,
                [plan.batch for plan in chunk],
                backgrounds=[plan.background for plan in chunk],
                large_writes=large_writes,
            )
            yield from (plan.finalize(times) for plan, times in zip(chunk, done, strict=True))
            del chunk, done
