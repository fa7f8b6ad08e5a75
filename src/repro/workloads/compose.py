"""Multi-application composition over shared OSTs.

:func:`run_composition` runs several :class:`~repro.workloads.spec.Workload`
applications side by side on one machine: per iteration, each application's
arrival process generates *when* its clients write, and its approach plans
the request batch it would put on the file system.  Every iteration is
drawn first; then each write class's iterations are solved in one stacked
:func:`~repro.engine.solve_groups` call, in which an iteration's batches
form one contention group — so the applications genuinely contend for the
same OSTs, and iterations never do — and finally every application's
plan is finalized from its own completion times.

:func:`run_compositions` runs many such compositions ("cells") on one
seed: each distinct workload is drawn once and shared by the cells that
hold it, and each cell still solves alone.

Modelling decisions:

* **Write class of a merged solve.**  The engine's seek-penalty slope is
  per solve, so a merged iteration uses the large-write slope only when
  *every* composed application writes large aggregates; one application
  spraying many small interleaved files drags the shared disks into the
  steep-seek regime for everybody.
* **Seeding.**  Each workload owns one generator derived from
  ``[seed, ranks, crc32(approach), crc32(arrival), crc32(app)]`` — the
  crc32 name-hash scheme used everywhere else — so an application's
  stream never shifts when other applications are added, removed or
  reordered.
* **Record/replay.**  Every run also assembles a
  :class:`~repro.workloads.trace.Trace` of what it put on the OSTs;
  :func:`replay_trace` re-solves a trace with no rng involved, so a
  pinned scenario reproduces its per-app completion times exactly on any
  backend.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..engine import NO_INTERFERENCE, Interference, Machine, resolve_machine, solve_groups
from ..io_models import IterationPlan, IterationResult, resolve_approach
from ..util import FloatArray, seed_key
from .arrivals import resolve_arrival_process
from .spec import Workload
from .trace import Trace, TraceIteration

__all__ = [
    "CompositionResult",
    "run_composition",
    "run_compositions",
    "replay_trace",
    "workload_rng",
]


def workload_rng(seed: int, workload: Workload) -> np.random.Generator:
    """The rng of one workload within a composition.

    Name-keyed like every other stream in the package: independent of
    which other applications run alongside and of execution order.
    """
    return np.random.default_rng(
        [
            seed,
            workload.ranks,
            seed_key(workload.approach),
            seed_key(workload.arrival),
            seed_key(workload.app),
        ]
    )


@dataclass(frozen=True)
class CompositionResult:
    """What a composed scenario cost each application."""

    apps: tuple[str, ...]
    #: Per-app per-iteration results, in workload order.
    results: dict[str, list[IterationResult]]
    #: Per-app per-iteration raw request completion times (batch order).
    completions: dict[str, list[FloatArray]]
    #: The recorded scenario, replayable exactly.
    trace: Trace


def run_composition(
    machine: Machine | str,
    workloads: Sequence[Workload],
    iterations: int,
    *,
    period: float,
    seed: int = 0,
    interference: Interference | None = None,
    trace_path: str | Path | None = None,
) -> CompositionResult:
    """Run several applications' workloads against one shared file system.

    ``period`` is the iteration turnover the arrival processes spread
    their requests into (typically the compute time).  ``interference``
    adds *external* (unmodelled) background load on top of the composed
    applications; by default the file system is otherwise quiet so the
    cross-application contention is the only signal.  When ``trace_path``
    is given the recorded trace is also written there as JSONL.
    """
    (result,) = run_compositions(
        machine,
        [workloads],
        iterations,
        period=period,
        seed=seed,
        interference=interference,
    )
    if trace_path is not None:
        result.trace.save(trace_path)
    return result


def run_compositions(
    machine: Machine | str,
    cells: Sequence[Sequence[Workload]],
    iterations: int,
    *,
    period: float,
    seed: int = 0,
    interference: Interference | None = None,
) -> Iterator[CompositionResult]:
    """:func:`run_composition` of every cell on one seed, yielded in cell order.

    Each distinct workload is drawn once and its plans are shared by every
    cell that holds it; the background is drawn once too.  Each cell is
    then solved alone, so its result is exactly what
    :func:`run_composition` gives for it.  Arguments are checked, and
    everything is drawn, before this returns; a cell is solved when its
    result is taken, on the engine backend in effect then (see
    :func:`~repro.engine.use_backend`).
    """
    machine = resolve_machine(machine)
    cells = [list(cell) for cell in cells]
    for cell in cells:
        if not cell:
            raise ValueError("a composition needs at least one workload")
        apps = [w.app for w in cell]
        if len(set(apps)) != len(apps):
            raise ValueError(f"workload app names must be unique, got {tuple(apps)}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")

    # A workload's generator is a pure function of the seed and its spec,
    # so one draw per distinct spec serves every cell.
    distinct = dict.fromkeys(w for cell in cells for w in cell)
    drawn = {w: _draw(machine, w, iterations, period, seed) for w in distinct}
    effective = NO_INTERFERENCE if interference is None else interference
    background_rng = np.random.default_rng([seed, seed_key("composition-background")])
    backgrounds = [effective.sample_background(machine, background_rng) for _ in range(iterations)]
    for background in backgrounds:
        # Shared by every cell's trace.
        background.flags.writeable = False
    return _solve_cells(machine, cells, drawn, backgrounds, period)


def _draw(
    machine: Machine, workload: Workload, iterations: int, period: float, seed: int
) -> list[IterationPlan]:
    """One workload's plan per iteration, in its generator's draw order."""
    approach = resolve_approach(workload.approach)
    process = resolve_arrival_process(workload.arrival)
    rng = workload_rng(seed, workload)
    clients = approach.clients(machine, workload.ranks)
    plans: list[IterationPlan] = []
    for _ in range(iterations):
        arrivals = process.sample(rng, clients, period)
        plans.append(
            approach.plan_iteration(machine, workload.ranks, workload.data_per_rank, rng, arrivals)
        )
    return plans


def _solve_cells(
    machine: Machine,
    cells: Sequence[Sequence[Workload]],
    drawn: dict[Workload, list[IterationPlan]],
    backgrounds: Sequence[FloatArray],
    period: float,
) -> Iterator[CompositionResult]:
    """Solve and finalize each cell alone from the shared draws."""
    for cell in cells:
        apps = tuple(w.app for w in cell)
        trace = Trace(
            machine=machine.name, period=period, apps=apps, machine_fields=asdict(machine)
        )
        for index, background in enumerate(backgrounds):
            plans = [drawn[w][index] for w in cell]
            trace.iterations.append(
                TraceIteration(
                    large_writes=all(plan.large_writes for plan in plans),
                    background=background,
                    batches={app: plan.batch for app, plan in zip(apps, plans, strict=True)},
                )
            )
        results: dict[str, list[IterationResult]] = {app: [] for app in apps}
        completions: dict[str, list[FloatArray]] = {app: [] for app in apps}
        for index, parts in enumerate(_solve_trace(machine, trace)):
            for workload, part in zip(cell, parts, strict=True):
                results[workload.app].append(drawn[workload][index].finalize(part))
                completions[workload.app].append(part)
        yield CompositionResult(apps=apps, results=results, completions=completions, trace=trace)


def replay_trace(
    trace: Trace | str | Path,
    *,
    machine: Machine | str | None = None,
) -> dict[str, list[FloatArray]]:
    """Re-solve a recorded scenario; returns per-app completion times.

    No rng is involved: the trace already pins the machine, every request
    and the background load, so the result is exactly what the recording
    run saw (and must agree across engine backends).  ``machine``
    replays the requests on another machine instead.
    """
    if not isinstance(trace, Trace):
        trace = Trace.load(trace)
    if machine is None:
        machine = trace.machine if trace.machine_fields is None else Machine(**trace.machine_fields)
    machine = resolve_machine(machine)
    completions: dict[str, list[FloatArray]] = {app: [] for app in trace.apps}
    for parts in _solve_trace(machine, trace):
        for app, part in zip(trace.apps, parts, strict=True):
            completions[app].append(part)
    return completions


def _solve_trace(machine: Machine, trace: Trace) -> list[list[FloatArray]]:
    """Per iteration, each app's completion times: one stacked solve per
    write class, in which each iteration's batches form one contention group."""
    done: list[list[FloatArray]] = [[] for _ in trace.iterations]
    for large_writes in sorted({iteration.large_writes for iteration in trace.iterations}):
        index = [i for i, it in enumerate(trace.iterations) if it.large_writes == large_writes]
        solved = solve_groups(
            machine,
            [[trace.iterations[i].batches[app] for app in trace.apps] for i in index],
            backgrounds=[trace.iterations[i].background for i in index],
            large_writes=large_writes,
        )
        for i, parts in zip(index, solved, strict=True):
            done[i] = parts
    return done
