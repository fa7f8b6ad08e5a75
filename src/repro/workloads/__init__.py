"""Workload generation: arrival processes, specs, traces, and composition.

This package turns the single perfectly-periodic application every earlier
experiment simulated into a vocabulary of *workloads*:

* :mod:`~repro.workloads.arrivals` — registered arrival-process
  generators (``periodic``, ``jittered``, ``poisson``, ``burst``) that
  shape *when* clients write inside an iteration.
* :mod:`~repro.workloads.spec` — the frozen :class:`Workload` spec (app,
  ranks, data per rank, arrival process, approach) with a ``key=value``
  string form for ``REPRO_WORKLOAD``.
* :mod:`~repro.workloads.trace` — JSONL record/replay of the generated
  request traces, so a scenario can be pinned and re-run exactly.
* :mod:`~repro.workloads.compose` — the multi-application composer:
  every iteration's workloads contend as one group over the shared OSTs,
  one stacked solve per write class, per-app times split back out;
  :func:`run_compositions` runs many such cells on one seed, drawing each
  distinct workload once.

Experiment E9 (:mod:`repro.experiments.app_interference`) sweeps this
machinery: background workload intensity x approach, reporting per-app
write time and variability.
"""

from .arrivals import (
    ArrivalProcess,
    BurstArrivals,
    Jittered,
    Periodic,
    PoissonArrivals,
    arrival_process_names,
    register_arrival_process,
    resolve_arrival_process,
)
from .compose import (
    CompositionResult,
    replay_trace,
    run_composition,
    run_compositions,
    workload_rng,
)
from .spec import Workload
from .trace import Trace, TraceIteration

__all__ = [
    "ArrivalProcess",
    "Periodic",
    "Jittered",
    "PoissonArrivals",
    "BurstArrivals",
    "register_arrival_process",
    "resolve_arrival_process",
    "arrival_process_names",
    "Workload",
    "Trace",
    "TraceIteration",
    "CompositionResult",
    "run_composition",
    "run_compositions",
    "replay_trace",
    "workload_rng",
]
