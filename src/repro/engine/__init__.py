"""The simulation engine: machines, interference, and the OST solvers.

This package is the bottom layer of the simulator.  It owns the frozen
:class:`~repro.engine.machines.Machine` descriptions and their registry,
the :class:`~repro.engine.interference.Interference` model, the write
request containers, and two interchangeable processor-sharing solvers:

* ``vectorized`` — numpy batch solver, the default.
* ``reference`` — the seed implementation, kept as ground truth.

Everything above (``repro.io_models``, ``repro.experiments``, the CLI)
talks to this package only through the names re-exported here.
"""

from .api import (
    backend_names,
    default_backend,
    register_backend,
    set_default_backend,
    solve,
    use_backend,
)
from .batching import solve_groups, solve_many
from .interference import NO_INTERFERENCE, Interference
from .machines import (
    EXASCALE,
    GRID5000,
    KRAKEN,
    PENALTY_CAP,
    Machine,
    machine_names,
    register_machine,
    resolve_machine,
)
from .requests import LaneOrder, RequestBatch, merge_batches, split_by_segment

__all__ = [
    "Machine",
    "KRAKEN",
    "GRID5000",
    "EXASCALE",
    "PENALTY_CAP",
    "register_machine",
    "resolve_machine",
    "machine_names",
    "Interference",
    "NO_INTERFERENCE",
    "RequestBatch",
    "LaneOrder",
    "merge_batches",
    "split_by_segment",
    "solve",
    "solve_many",
    "solve_groups",
    "backend_names",
    "register_backend",
    "default_backend",
    "set_default_backend",
    "use_backend",
]
