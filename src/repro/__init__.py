"""repro — a simulation-based reproduction of conf_ipps_Dorier13.

The package models the paper's dedicated-core I/O middleware (Damaris):
one core per multicore node is dedicated to I/O, clients hand their data
over through node-local shared memory, and the dedicated core aggregates,
post-processes and writes it asynchronously.  The layers, bottom up:

* :mod:`repro.engine` — machine registry, interference model, and the
  vectorized/reference processor-sharing OST solvers.
* :mod:`repro.io_models` — the I/O approaches (file-per-process,
  collective, damaris, dedicated-nodes) and their registry.
* :mod:`repro.workloads` — arrival-process generators (periodic,
  jittered, poisson, burst), the frozen :class:`Workload` spec, JSONL
  trace record/replay, and the multi-application composer.
* :mod:`repro.scenario` — the frozen :class:`ScenarioConfig` that pins a
  run's machine, ladder, interference, data volume and seed.
* :mod:`repro.experiments` — one runner per experiment (the paper's
  E1-E8 plus the cross-application interference sweep E9), each a plain
  in-process loop over its cells.
* :mod:`repro.bench` — the declared benchmark suite, warmup + best-of-N
  timing harness, and versioned ``BENCH_<sha>.json`` results that track
  the solvers' wall-clock trajectory (``python -m repro bench``).

``python -m repro run e1 --machine kraken --full-scale`` drives any
experiment from the command line.
"""

from .engine import (
    EXASCALE,
    GRID5000,
    KRAKEN,
    Interference,
    Machine,
    RequestBatch,
    machine_names,
    register_machine,
    resolve_machine,
)
from .io_models import (
    APPROACHES,
    Collective,
    DedicatedCores,
    DedicatedNodes,
    FilePerProcess,
    approach_names,
    register_approach,
    resolve_approach,
)
from .scenario import ScenarioConfig
from .table import Row, Table
from .workloads import (
    Trace,
    Workload,
    arrival_process_names,
    register_arrival_process,
    resolve_arrival_process,
)

__version__ = "0.6.0"

__all__ = [
    "Machine",
    "KRAKEN",
    "GRID5000",
    "EXASCALE",
    "Interference",
    "RequestBatch",
    "Table",
    "Row",
    "ScenarioConfig",
    "APPROACHES",
    "FilePerProcess",
    "Collective",
    "DedicatedCores",
    "DedicatedNodes",
    "register_machine",
    "resolve_machine",
    "machine_names",
    "register_approach",
    "resolve_approach",
    "approach_names",
    "Workload",
    "Trace",
    "register_arrival_process",
    "resolve_arrival_process",
    "arrival_process_names",
    "__version__",
]
