"""Machine descriptions and the machine registry.

A :class:`Machine` is a frozen, declarative description of a compute
platform and its parallel file system — the quoracle idiom of composing
small immutable system objects and evaluating them later.  Machines are
registered by name (:func:`register_machine`) so experiments, benchmarks
and the CLI can select platforms with a string; :func:`resolve_machine`
accepts either form.

Three platforms ship by default:

* :data:`KRAKEN` — the paper's platform: a Cray XT5 with 12-core nodes
  and a 336-OST Lustre scratch (peak on the order of 30 GB/s).
* :data:`GRID5000` — a Grid'5000-like commodity cluster (8-core nodes,
  a small PVFS-like store behind 10 GbE), the testbed of the early
  Damaris experiments.
* :data:`EXASCALE` — a synthetic forward-looking machine (64-core nodes,
  1024 OSTs) for what-if sweeps beyond any paper configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..util import GB, MB

__all__ = [
    "Machine",
    "KRAKEN",
    "GRID5000",
    "EXASCALE",
    "PENALTY_CAP",
    "register_machine",
    "resolve_machine",
    "machine_names",
]

#: Seek-thrash penalty saturates once the request queue is deep enough for
#: elevator scheduling to merge neighbouring writes.
PENALTY_CAP = 20.0


@dataclass(frozen=True)
class Machine:
    """Static description of a compute platform and its parallel file system.

    Construction (and :meth:`with_overrides`) rejects a core or OST count
    below 1, a rate or bandwidth that is not finite and positive, and a
    seek-penalty slope that is not finite and non-negative, with a
    :class:`ValueError` naming the field: the solvers would otherwise
    return negative or infinite times, or divide by zero.
    """

    name: str
    cores_per_node: int
    ost_count: int
    #: Sustained bandwidth of one OST serving a single sequential stream.
    ost_bandwidth: float
    #: Node-local shared-memory copy bandwidth (client -> dedicated core).
    shm_bandwidth: float
    #: File creations per second the metadata server sustains (file-per-process
    #: floods it with one create per rank per iteration).
    metadata_rate: float
    #: Plateau bandwidth of collective (shared-file) MPI-IO on this system;
    #: stripe-lock contention keeps it far below the hardware peak.
    collective_bandwidth: float
    #: Seek-penalty slope for many small interleaved streams (file-per-process).
    small_write_seek_penalty: float = 2.8
    #: Seek-penalty slope for large aggregated sequential writes.
    large_write_seek_penalty: float = 0.3
    #: Sustained point-to-point interconnect bandwidth of one node's NIC
    #: (client node -> dedicated I/O node in the dedicated-nodes approach).
    nic_bandwidth: float = 2 * GB

    def __post_init__(self) -> None:
        # Plain compares, which NaN fails: solve_many builds a widened copy
        # per stacked solve, so this runs on the hot path.
        for name in ("cores_per_node", "ost_count"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"Machine {name} must be >= 1, got {value!r}")
        for name in (
            "ost_bandwidth",
            "shm_bandwidth",
            "metadata_rate",
            "collective_bandwidth",
            "nic_bandwidth",
        ):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"Machine {name} must be finite and > 0, got {value!r}")
        for name in ("small_write_seek_penalty", "large_write_seek_penalty"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"Machine {name} must be finite and >= 0, got {value!r}")

    def with_overrides(self, **overrides: object) -> Machine:
        """A copy of this machine with some fields replaced (e.g. a smaller
        ``ost_count`` to reach the paper's nodes-to-OSTs ratio cheaply)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate file-system peak: every OST streaming unimpeded."""
        return self.ost_count * self.ost_bandwidth

    def nodes_for(self, ranks: int) -> int:
        """Number of nodes a run of ``ranks`` cores occupies (ceiling)."""
        return -(-ranks // self.cores_per_node)

    def seek_penalty(self, streams: float, *, large_writes: bool) -> float:
        """Effective slowdown of an OST serving ``streams`` interleaved writers."""
        if streams <= 1.0:
            return 1.0
        slope = (
            self.large_write_seek_penalty
            if large_writes
            else self.small_write_seek_penalty
        )
        return min(1.0 + slope * (streams - 1.0), PENALTY_CAP)


#: Kraken (NICS): Cray XT5, 12-core nodes, Lustre with 336 OSTs and a peak
#: on the order of 30 GB/s.  ``collective_bandwidth`` is the shared-file
#: plateau the paper observes (~0.5 GB/s).
KRAKEN = Machine(
    name="kraken",
    cores_per_node=12,
    ost_count=336,
    ost_bandwidth=90 * MB,
    shm_bandwidth=0.6 * GB,
    metadata_rate=400.0,
    collective_bandwidth=0.55 * GB,
)

#: A Grid'5000-like commodity cluster: 8-core nodes, a small PVFS-like
#: store (24 servers at ~60 MB/s each) reached over 10 GbE.  The early
#: Damaris experiments ran on exactly this kind of testbed.
GRID5000 = Machine(
    name="grid5000",
    cores_per_node=8,
    ost_count=24,
    ost_bandwidth=60 * MB,
    shm_bandwidth=2 * GB,
    metadata_rate=800.0,
    collective_bandwidth=0.35 * GB,
    nic_bandwidth=1.25 * GB,
)

#: A synthetic exascale-era machine: fat 64-core nodes, 1024 OSTs, fast
#: NVMe-backed targets, and a collective plateau that — as on every real
#: system — sits far below the hardware peak.
EXASCALE = Machine(
    name="exascale",
    cores_per_node=64,
    ost_count=1024,
    ost_bandwidth=500 * MB,
    shm_bandwidth=8 * GB,
    metadata_rate=2000.0,
    collective_bandwidth=8 * GB,
    nic_bandwidth=25 * GB,
)

_MACHINES: dict[str, Machine] = {}


def register_machine(machine: Machine) -> Machine:
    """Register ``machine`` under its (lower-cased) name; returns it.

    Registering a second machine under an existing name is an error, so
    typos cannot silently shadow a platform.
    """
    key = machine.name.lower()
    if key in _MACHINES:
        raise ValueError(f"machine {machine.name!r} is already registered")
    _MACHINES[key] = machine
    return machine


def machine_names() -> tuple[str, ...]:
    """The registered machine names, sorted."""
    return tuple(sorted(_MACHINES))


def resolve_machine(machine: Machine | str) -> Machine:
    """Accept either a :class:`Machine` or a registered machine name."""
    if isinstance(machine, Machine):
        return machine
    try:
        return _MACHINES[machine.lower()]
    except KeyError:
        raise ValueError(
            f"unknown machine {machine!r}; known: {sorted(_MACHINES)}"
        ) from None


for _machine in (KRAKEN, GRID5000, EXASCALE):
    register_machine(_machine)
