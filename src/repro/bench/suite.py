"""The registered benchmark suite: engine micro-benchmarks + experiment macros.

Micro-benchmarks time one engine primitive on the repo's most demanding
standard workloads — the 2304-rank E2 create storm (plus the dedicated
-core flush) for the twin solvers, the 150-batch stacked replication
workload for :func:`~repro.engine.solve_many` and
:func:`~repro.engine.merge_batches`, and full-scale arrival generation
for the workload layer.  Each fast path is registered *next to the
slow path it replaced* (``vectorized``/``reference``,
``stacked``/``serial``, ``driver_batched``/``driver_serial``), so the
perf guards in ``tests/test_perf_guard.py`` are nothing but ratio
assertions over this same registry, and a results file always carries
both sides of every speedup claim.

Macro-benchmarks run the paper's full-scale experiment sweeps (E1–E4,
E9, and replicated E2) end to end — table construction included — which
is what the CI ``bench-perf`` gate actually protects: the wall-clock a
user pays for ``python -m repro run``.

``work`` counts nominal client write requests (or arrivals for the
workload benchmarks); results derive ``throughput_per_s = work / best``
from it, the requests-solved-per-second trajectory the roadmap tracks.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from ..engine import EXASCALE, KRAKEN, RequestBatch, merge_batches, solve, solve_many
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
from ..serve import SolveService, demo_stream
from ..stats import run_replications
from ..stats.replication import replication_rng
from ..util import MB, FloatArray
from ..workloads import resolve_arrival_process
from .registry import register_benchmark

__all__ = ["STORM_RANKS", "E2_REPLICATIONS", "E2_ITERATIONS"]

#: The E2 create-storm scale every solver micro-benchmark replays.
STORM_RANKS = 2304
E2_REPLICATIONS = 30
E2_ITERATIONS = 5

_FULL_LADDER = DEFAULT_LADDER + (FULL_SCALE_RANKS,)
_PAPER_APPROACHES = len(resolve_approaches(None))


def _storm_workloads() -> tuple[list[tuple[RequestBatch, bool]], FloatArray]:
    """The most demanding default-ladder workload: a 2304-rank
    file-per-process create storm plus a dedicated-core flush."""
    rng = np.random.default_rng(0)
    create_storm = RequestBatch(
        arrival=np.sort(rng.uniform(0.0, STORM_RANKS / KRAKEN.metadata_rate, STORM_RANKS)),
        ost=rng.permutation(STORM_RANKS) % KRAKEN.ost_count,
        nbytes=45 * MB,
    )
    nodes = KRAKEN.nodes_for(STORM_RANKS)
    flush = RequestBatch(
        arrival=0.0,
        ost=rng.permutation(nodes) % KRAKEN.ost_count,
        nbytes=11 * 45 * MB,
    )
    background = rng.poisson(1.2, KRAKEN.ost_count).astype(float)
    return [(create_storm, False), (flush, True)], background


def _make_solve(backend: str) -> tuple[Callable[[], None], float]:
    workloads, background = _storm_workloads()

    def run() -> None:
        for batch, large_writes in workloads:
            solve(KRAKEN, batch, background=background, large_writes=large_writes, backend=backend)

    return run, float(sum(len(batch) for batch, _ in workloads))


_SOLVE_PARAMS = {"ranks": STORM_RANKS, "machine": "kraken", "workload": "e2-create-storm+flush"}


@register_benchmark(
    "micro.solve.vectorized",
    kind="micro",
    params={**_SOLVE_PARAMS, "backend": "vectorized"},
    description="numpy batch solver on the 2304-rank create storm + flush",
)
def _bench_solve_vectorized() -> tuple[Callable[[], None], float]:
    return _make_solve("vectorized")


@register_benchmark(
    "micro.solve.reference",
    kind="micro",
    params={**_SOLVE_PARAMS, "backend": "reference"},
    description="seed event-loop solver on the same workload (ground truth)",
)
def _bench_solve_reference() -> tuple[Callable[[], None], float]:
    return _make_solve("reference")


def _exascale_staggered() -> tuple[list[tuple[RequestBatch, bool]], FloatArray]:
    """The staggered unequal-size stressor: 9216 poisson writers plus a
    9216-rank burst front on the exascale machine's 1024 OSTs — the exact
    shape that falls off every matrix fast path into per-event solving
    (lockstep, 1024 requests per pass)."""
    rng = np.random.default_rng(1)
    batches: list[tuple[RequestBatch, bool]] = []
    for process, large_writes in (("poisson", False), ("burst", True)):
        arrival = resolve_arrival_process(process).sample(rng, FULL_SCALE_RANKS, 120.0)
        batch = RequestBatch(
            arrival=arrival,
            ost=rng.permutation(FULL_SCALE_RANKS) % EXASCALE.ost_count,
            nbytes=rng.uniform(4 * MB, 90 * MB, FULL_SCALE_RANKS),
        )
        batches.append((batch, large_writes))
    background = rng.poisson(1.2, EXASCALE.ost_count).astype(float)
    return batches, background


def _make_staggered(backend: str | None) -> tuple[Callable[[], None], float]:
    workloads, background = _exascale_staggered()

    def run() -> None:
        for batch, large_writes in workloads:
            solve(
                EXASCALE, batch, background=background, large_writes=large_writes, backend=backend
            )

    return run, float(sum(len(batch) for batch, _ in workloads))


_STAGGERED_PARAMS = {
    "ranks": FULL_SCALE_RANKS,
    "machine": "exascale",
    "workload": "poisson+burst staggered, mixed sizes",
}


@register_benchmark(
    "micro.solve_staggered.vectorized",
    kind="micro",
    params={**_STAGGERED_PARAMS, "backend": "vectorized"},
    description="numpy backend's lockstep heap sweep on the same staggered workload",
)
def _bench_staggered_vectorized() -> tuple[Callable[[], None], float]:
    return _make_staggered("vectorized")


@register_benchmark(
    "micro.solve_staggered.reference",
    kind="micro",
    params={**_STAGGERED_PARAMS, "backend": "reference"},
    description="seed event-loop solver on the same staggered workload (ground truth)",
)
def _bench_staggered_reference() -> tuple[Callable[[], None], float]:
    return _make_staggered("reference")


@functools.cache
def _e2_prepared_storm() -> tuple[tuple[RequestBatch, ...], tuple[FloatArray | None, ...]]:
    """E2's full-scale create-storm cells, prepared for every replication.

    Cached: three benchmarks (stacked/serial ``solve_many``,
    ``merge_batches``) share this deterministic, seed-pinned setup, and
    none of them mutates the batches — rebuilding 150 cells per
    benchmark would only slow the untimed setup phase.
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


_STACK_PARAMS = {
    "ranks": STORM_RANKS,
    "machine": "kraken",
    "replications": E2_REPLICATIONS,
    "iterations": E2_ITERATIONS,
}


@register_benchmark(
    "micro.solve_many.stacked",
    kind="micro",
    params=_STACK_PARAMS,
    description="150 replication batches solved in one virtual-OST-axis stack",
)
def _bench_solve_many_stacked() -> tuple[Callable[[], None], float]:
    batches, backgrounds = _e2_prepared_storm()
    work = float(sum(len(b) for b in batches))

    def run() -> None:
        solve_many(KRAKEN, batches, backgrounds=backgrounds, large_writes=False)

    return run, work


@register_benchmark(
    "micro.solve_many.serial",
    kind="micro",
    params=_STACK_PARAMS,
    description="the same 150 batches through a per-batch solve loop (baseline)",
)
def _bench_solve_many_serial() -> tuple[Callable[[], None], float]:
    batches, backgrounds = _e2_prepared_storm()
    work = float(sum(len(b) for b in batches))

    def run() -> None:
        for batch, background in zip(batches, backgrounds, strict=True):
            solve(KRAKEN, batch, background=background, large_writes=False)

    return run, work


@register_benchmark(
    "micro.merge_batches",
    kind="micro",
    params=_STACK_PARAMS,
    description="merge 150 replication batches into one batch",
)
def _bench_merge_batches() -> tuple[Callable[[], None], float]:
    batches, _ = _e2_prepared_storm()
    work = float(sum(len(b) for b in batches))

    def run() -> None:
        merge_batches(batches)

    return run, work


def _make_arrivals(process: str, draws: int = 32) -> tuple[Callable[[], None], float]:
    arrival = resolve_arrival_process(process)
    rngs = [np.random.default_rng([0, i]) for i in range(draws)]

    def run() -> None:
        for rng in rngs:
            arrival.sample(rng, FULL_SCALE_RANKS, 120.0)

    return run, float(FULL_SCALE_RANKS * draws)


_ARRIVAL_PARAMS = {"ranks": FULL_SCALE_RANKS, "draws": 32, "period_s": 120.0}


@register_benchmark(
    "micro.arrivals.poisson",
    kind="micro",
    params={**_ARRIVAL_PARAMS, "process": "poisson"},
    units="arrivals",
    description="poisson arrival generation at the 9216-rank scale",
)
def _bench_arrivals_poisson() -> tuple[Callable[[], None], float]:
    return _make_arrivals("poisson")


@register_benchmark(
    "micro.arrivals.burst",
    kind="micro",
    params={**_ARRIVAL_PARAMS, "process": "burst"},
    units="arrivals",
    description="inhomogeneous-Poisson burst arrivals (exact thinning) at 9216 ranks",
)
def _bench_arrivals_burst() -> tuple[Callable[[], None], float]:
    return _make_arrivals("burst")


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


@register_benchmark(
    "micro.replication.driver_batched",
    kind="micro",
    params={**_DRIVER_PARAMS, "batched": True},
    description="end-to-end replication driver, stacked solve_many path",
)
def _bench_driver_batched() -> tuple[Callable[[], None], float]:
    return _make_replication_driver(batched=True)


@register_benchmark(
    "micro.replication.driver_serial",
    kind="micro",
    params={**_DRIVER_PARAMS, "batched": False},
    description="end-to-end replication driver, serial run_iteration loop (baseline)",
)
def _bench_driver_serial() -> tuple[Callable[[], None], float]:
    return _make_replication_driver(batched=False)


# --------------------------------------------------------------------------
# Macro-benchmarks: the paper's experiment sweeps at full (9216-rank) scale.
# --------------------------------------------------------------------------


@register_benchmark(
    "macro.e1.weak_scaling",
    kind="macro",
    params={"ladder": list(_FULL_LADDER), "iterations": 2, "approaches": _PAPER_APPROACHES},
    description="E1 weak-scaling sweep over the full ladder, the paper's comparison set",
)
def _bench_e1() -> tuple[Callable[[], None], float]:
    def run() -> None:
        run_weak_scaling(scales=_FULL_LADDER, iterations=2, data_per_rank=45 * MB, seed=0)

    return run, float(sum(_FULL_LADDER) * 2 * _PAPER_APPROACHES)


@register_benchmark(
    "macro.e2.replicated",
    kind="macro",
    params={"ranks": STORM_RANKS, "iterations": 5, "replications": 10, "interference": True},
    description="E2 variability under interference, 10 replications with CI columns",
)
def _bench_e2_replicated() -> tuple[Callable[[], None], float]:
    def run() -> None:
        run_variability(ranks=STORM_RANKS, iterations=5, seed=0, replications=10)

    return run, float(STORM_RANKS * 5 * _PAPER_APPROACHES * 10)


@register_benchmark(
    "macro.e3.throughput",
    kind="macro",
    params={"ranks": FULL_SCALE_RANKS, "iterations": 2},
    description="E3 aggregate-throughput comparison at the paper's 9216-rank scale",
)
def _bench_e3() -> tuple[Callable[[], None], float]:
    def run() -> None:
        run_throughput(ranks=FULL_SCALE_RANKS, iterations=2, seed=0)

    return run, float(FULL_SCALE_RANKS * 2 * _PAPER_APPROACHES)


@register_benchmark(
    "macro.e4.spare_time",
    kind="macro",
    params={"ladder": list(_FULL_LADDER), "iterations": 3},
    description="E4 dedicated-core idle time over the full ladder",
)
def _bench_e4() -> tuple[Callable[[], None], float]:
    def run() -> None:
        run_spare_time(scales=_FULL_LADDER, iterations=3, seed=0)

    return run, float(sum(_FULL_LADDER) * 3)


@register_benchmark(
    "macro.exascale.staggered",
    kind="macro",
    params={**_STAGGERED_PARAMS, "iterations": 3, "backend": "default"},
    description="three rounds of the exascale staggered mix through the default backend",
)
def _bench_exascale_staggered() -> tuple[Callable[[], None], float]:
    run_once, work = _make_staggered(None)

    def run() -> None:
        for _ in range(3):
            run_once()

    return run, 3.0 * work


#: The overlapping 10k-request grid both serve macros replay: 1280 unique
#: solve cells swept 8 times with the arrival order rotated every pass.
_SERVE_STREAM = {"cells": 1280, "passes": 8, "ranks": 128, "machine": "grid5000", "seed": 0}


@functools.cache
def _serve_stream() -> list:
    """Shared by the sustained/inline pair; requests are never mutated."""
    return demo_stream(
        str(_SERVE_STREAM["machine"]),
        cells=int(_SERVE_STREAM["cells"]),
        passes=int(_SERVE_STREAM["passes"]),
        ranks=int(_SERVE_STREAM["ranks"]),
        seed=int(_SERVE_STREAM["seed"]),
    )


@register_benchmark(
    "macro.serve.sustained",
    kind="macro",
    params=_SERVE_STREAM,
    description="10240 overlapping requests through a cold solve service (dedup + coalesce)",
)
def _bench_serve_sustained() -> tuple[Callable[[], None], float]:
    stream = _serve_stream()

    def run() -> None:
        # A fresh service every round: each measurement pays the full
        # dedup + memo-build + coalesced-solve cost, no warm cache.
        service = SolveService()
        for request in stream:
            service.submit(request)
        service.flush()

    return run, float(len(stream))


@register_benchmark(
    "macro.serve.inline",
    kind="macro",
    params=_SERVE_STREAM,
    description="the same request stream solved one engine call at a time (baseline)",
)
def _bench_serve_inline() -> tuple[Callable[[], None], float]:
    stream = _serve_stream()

    def run() -> None:
        for request in stream:
            solve(
                request.machine,
                request.batch,
                background=request.background,
                large_writes=request.large_writes,
            )

    return run, float(len(stream))


@register_benchmark(
    "macro.e9.interference",
    kind="macro",
    params={"ranks": STORM_RANKS, "iterations": 4, "intensities": 3},
    description="E9 cross-application interference sweep (intensity x approach)",
)
def _bench_e9() -> tuple[Callable[[], None], float]:
    def run() -> None:
        run_app_interference(ranks=STORM_RANKS, iterations=4, seed=0)

    return run, float(STORM_RANKS * 4 * _PAPER_APPROACHES * 3)
