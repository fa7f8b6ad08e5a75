"""The benchmark suite, one declared tuple: engine micro-benchmarks + macros.

Micro-benchmarks time one engine primitive on the repo's most demanding
standard workloads — the 2304-rank E2 create storm (plus the dedicated
-core flush) for the twin solvers, the 150-batch stacked replication
workload for :func:`~repro.engine.solve_many`, and full-scale burst
arrival generation for the workload layer.  Each fast path is declared
*next to the slow path it replaced* (``vectorized``/``reference``,
``stacked``/``serial``, ``driver_batched``/``driver_serial``,
``sustained``/``inline``), so the perf guards in
``tests/test_perf_guard.py`` are nothing but ratio assertions over this
same suite, and a results file always carries both sides of every
speedup claim.

Macro-benchmarks run the paper's full-scale experiment sweeps (E1–E4,
E9, and replicated E2) and the solve service end to end — table
construction included — which is what the CI ``bench-perf`` gate
actually protects: the wall-clock a user pays for ``python -m repro run``.

``work`` counts nominal client write requests (or arrivals for the
workload benchmark); results derive ``throughput_per_s = work / best``
from it, the requests-solved-per-second trajectory the roadmap tracks.
:data:`SUITE` lists micro before macro, each sorted by name, which is
the order ``bench --list`` prints.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from ..engine import KRAKEN, RequestBatch, solve, solve_many
from ..experiments import (
    run_app_interference,
    run_spare_time,
    run_throughput,
    run_variability,
    run_weak_scaling,
)
from ..experiments._driver import DEFAULT_INTERFERENCE
from ..io_models import resolve_approach, resolve_approaches
from ..scenario import DEFAULT_LADDER, FULL_SCALE_RANKS
from ..serve import SolveRequest, SolveService, demo_stream
from ..stats import run_replications
from ..stats.replication import replication_rng
from ..util import MB, FloatArray
from ..workloads import resolve_arrival_process
from .registry import Benchmark, BenchmarkMaker

__all__ = ["SUITE", "STORM_RANKS", "E2_REPLICATIONS", "E2_ITERATIONS"]

#: The E2 create-storm scale every solver micro-benchmark replays.
STORM_RANKS = 2304
E2_REPLICATIONS = 30
E2_ITERATIONS = 5

_FULL_LADDER = DEFAULT_LADDER + (FULL_SCALE_RANKS,)
_PAPER_APPROACHES = len(resolve_approaches(None))


def _make_solve(backend: str) -> tuple[Callable[[], None], float]:
    """The most demanding default-ladder workload: a 2304-rank
    file-per-process create storm plus a dedicated-core flush."""
    rng = np.random.default_rng(0)
    create_storm = RequestBatch(
        arrival=np.sort(rng.uniform(0.0, STORM_RANKS / KRAKEN.metadata_rate, STORM_RANKS)),
        ost=rng.permutation(STORM_RANKS) % KRAKEN.ost_count,
        nbytes=45 * MB,
    )
    flush = RequestBatch(
        arrival=0.0,
        ost=rng.permutation(KRAKEN.nodes_for(STORM_RANKS)) % KRAKEN.ost_count,
        nbytes=11 * 45 * MB,
    )
    background = rng.poisson(1.2, KRAKEN.ost_count).astype(float)
    workloads = [(create_storm, False), (flush, True)]

    def run() -> None:
        for batch, large_writes in workloads:
            solve(KRAKEN, batch, background=background, large_writes=large_writes, backend=backend)

    return run, float(len(create_storm) + len(flush))


_SOLVE_PARAMS = {"ranks": STORM_RANKS, "machine": "kraken", "workload": "e2-create-storm+flush"}


@functools.cache
def _e2_prepared_storm() -> tuple[tuple[RequestBatch, ...], tuple[FloatArray | None, ...]]:
    """E2's full-scale create-storm cells, prepared for every replication.

    Cached: the two ``solve_many`` benchmarks (stacked and serial) share
    this deterministic, seed-pinned setup, and neither mutates the
    batches — rebuilding 150 cells per benchmark would only slow the
    untimed setup phase.
    """
    approach = resolve_approach("file-per-process")
    # One shared rng per replication drives all its iterations in the
    # historical order, so derive per replication, not per iteration.
    prepared = []
    for replication in range(E2_REPLICATIONS):
        rng = replication_rng(0, STORM_RANKS, approach, replication)
        for _ in range(E2_ITERATIONS):
            prepared.append(
                approach.prepare_iteration(KRAKEN, STORM_RANKS, 45 * MB, rng, DEFAULT_INTERFERENCE)
            )
    return tuple(p.batch for p in prepared), tuple(p.background for p in prepared)


def _make_solve_many(stacked: bool) -> tuple[Callable[[], None], float]:
    batches, backgrounds = _e2_prepared_storm()

    def run_stacked() -> None:
        solve_many(KRAKEN, batches, backgrounds=backgrounds, large_writes=False)

    def run_serial() -> None:
        for batch, background in zip(batches, backgrounds, strict=True):
            solve(KRAKEN, batch, background=background, large_writes=False)

    return run_stacked if stacked else run_serial, float(sum(len(b) for b in batches))


_STACK_PARAMS = {
    "ranks": STORM_RANKS,
    "machine": "kraken",
    "replications": E2_REPLICATIONS,
    "iterations": E2_ITERATIONS,
}


def _make_burst_arrivals(draws: int = 32) -> tuple[Callable[[], None], float]:
    burst = resolve_arrival_process("burst")
    rngs = [np.random.default_rng([0, i]) for i in range(draws)]

    def run() -> None:
        for rng in rngs:
            burst.sample(rng, FULL_SCALE_RANKS, 120.0)

    return run, float(FULL_SCALE_RANKS * draws)


def _make_replication_driver(batched: bool) -> tuple[Callable[[], None], float]:
    approaches = ("file-per-process", "collective", "damaris")

    def run() -> None:
        for approach in approaches:
            run_replications(
                approach,
                machine=KRAKEN,
                ranks=STORM_RANKS,
                iterations=E2_ITERATIONS,
                data_per_rank=45 * MB,
                seed=0,
                replications=E2_REPLICATIONS,
                interference=DEFAULT_INTERFERENCE,
                batched=batched,
            )

    return run, float(len(approaches) * STORM_RANKS * E2_ITERATIONS * E2_REPLICATIONS)


_DRIVER_PARAMS = {**_STACK_PARAMS, "approaches": 3}


def _sweep(work: float, runner: Callable[..., object], **kwargs: object) -> BenchmarkMaker:
    """A maker with no setup whose timed run is ``runner(**kwargs)``."""
    return lambda: (functools.partial(runner, **kwargs), work)


#: The overlapping 10k-request grid both serve macros replay: 1280 unique
#: solve cells swept 8 times with the arrival order rotated every pass.
_SERVE_STREAM = {"cells": 1280, "passes": 8, "ranks": 128, "machine": "grid5000", "seed": 0}


@functools.cache
def _serve_stream() -> list[SolveRequest]:
    """Shared by the sustained/inline pair; requests are never mutated."""
    return demo_stream(
        str(_SERVE_STREAM["machine"]),
        cells=int(_SERVE_STREAM["cells"]),
        passes=int(_SERVE_STREAM["passes"]),
        ranks=int(_SERVE_STREAM["ranks"]),
        seed=int(_SERVE_STREAM["seed"]),
    )


def _make_serve(sustained: bool) -> tuple[Callable[[], None], float]:
    stream = _serve_stream()

    def run_sustained() -> None:
        # A fresh service every round: each measurement pays the full
        # dedup + memo-build + coalesced-solve cost, no warm cache.
        service = SolveService()
        for request in stream:
            service.submit(request)
        service.flush()

    def run_inline() -> None:
        for request in stream:
            solve(
                request.machine,
                request.batch,
                background=request.background,
                large_writes=request.large_writes,
            )

    return run_sustained if sustained else run_inline, float(len(stream))


#: Every benchmark: ``Benchmark(name, make, params, units, description)``.
SUITE: tuple[Benchmark, ...] = (
    Benchmark(
        "micro.arrivals.burst",
        _make_burst_arrivals,
        {"ranks": FULL_SCALE_RANKS, "draws": 32, "period_s": 120.0, "process": "burst"},
        "arrivals",
        "inhomogeneous-Poisson burst arrivals (exact thinning) at 9216 ranks",
    ),
    Benchmark(
        "micro.replication.driver_batched",
        functools.partial(_make_replication_driver, batched=True),
        {**_DRIVER_PARAMS, "batched": True},
        "requests",
        "end-to-end replication driver, stacked solve_many path",
    ),
    Benchmark(
        "micro.replication.driver_serial",
        functools.partial(_make_replication_driver, batched=False),
        {**_DRIVER_PARAMS, "batched": False},
        "requests",
        "end-to-end replication driver, serial run_iteration loop (baseline)",
    ),
    Benchmark(
        "micro.solve.reference",
        functools.partial(_make_solve, "reference"),
        {**_SOLVE_PARAMS, "backend": "reference"},
        "requests",
        "seed event-loop solver on the same workload (ground truth)",
    ),
    Benchmark(
        "micro.solve.vectorized",
        functools.partial(_make_solve, "vectorized"),
        {**_SOLVE_PARAMS, "backend": "vectorized"},
        "requests",
        "numpy batch solver on the 2304-rank create storm + flush",
    ),
    Benchmark(
        "micro.solve_many.serial",
        functools.partial(_make_solve_many, stacked=False),
        _STACK_PARAMS,
        "requests",
        "the same 150 batches through a per-batch solve loop (baseline)",
    ),
    Benchmark(
        "micro.solve_many.stacked",
        functools.partial(_make_solve_many, stacked=True),
        _STACK_PARAMS,
        "requests",
        "150 replication batches solved in one virtual-OST-axis stack",
    ),
    Benchmark(
        "macro.e1.weak_scaling",
        _sweep(
            float(sum(_FULL_LADDER) * 2 * _PAPER_APPROACHES),
            run_weak_scaling,
            scales=_FULL_LADDER,
            iterations=2,
            data_per_rank=45 * MB,
            seed=0,
        ),
        {"ladder": list(_FULL_LADDER), "iterations": 2, "approaches": _PAPER_APPROACHES},
        "requests",
        "E1 weak-scaling sweep over the full ladder, the paper's comparison set",
    ),
    Benchmark(
        "macro.e2.replicated",
        _sweep(
            float(STORM_RANKS * 5 * _PAPER_APPROACHES * 10),
            run_variability,
            ranks=STORM_RANKS,
            iterations=5,
            seed=0,
            replications=10,
        ),
        {"ranks": STORM_RANKS, "iterations": 5, "replications": 10, "interference": True},
        "requests",
        "E2 variability under interference, 10 replications with CI columns",
    ),
    Benchmark(
        "macro.e3.throughput",
        _sweep(
            float(FULL_SCALE_RANKS * 2 * _PAPER_APPROACHES),
            run_throughput,
            ranks=FULL_SCALE_RANKS,
            iterations=2,
            seed=0,
        ),
        {"ranks": FULL_SCALE_RANKS, "iterations": 2},
        "requests",
        "E3 aggregate-throughput comparison at the paper's 9216-rank scale",
    ),
    Benchmark(
        "macro.e4.spare_time",
        _sweep(
            float(sum(_FULL_LADDER) * 3), run_spare_time, scales=_FULL_LADDER, iterations=3, seed=0
        ),
        {"ladder": list(_FULL_LADDER), "iterations": 3},
        "requests",
        "E4 dedicated-core idle time over the full ladder",
    ),
    Benchmark(
        "macro.e9.interference",
        _sweep(
            float(STORM_RANKS * 4 * _PAPER_APPROACHES * 3),
            run_app_interference,
            ranks=STORM_RANKS,
            iterations=4,
            seed=0,
        ),
        {"ranks": STORM_RANKS, "iterations": 4, "intensities": 3},
        "requests",
        "E9 cross-application interference sweep (intensity x approach)",
    ),
    Benchmark(
        "macro.serve.inline",
        functools.partial(_make_serve, sustained=False),
        _SERVE_STREAM,
        "requests",
        "the same request stream solved one engine call at a time (baseline)",
    ),
    Benchmark(
        "macro.serve.sustained",
        functools.partial(_make_serve, sustained=True),
        _SERVE_STREAM,
        "requests",
        "10240 overlapping requests through a cold solve service (dedup + coalesce)",
    ),
)
