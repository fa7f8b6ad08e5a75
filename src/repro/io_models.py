"""The I/O approaches the paper compares, plus a registry to pick them by name.

* **file-per-process** — every rank creates and writes its own file each
  iteration.  The metadata server serialises the create storm, and with
  more ranks than OSTs the many small interleaved streams thrash the disks
  (steep seek penalty).  Fast at small scale, floods the namespace and
  collapses at large scale.
* **collective** — ranks funnel data through MPI-IO aggregators into one
  shared file.  Stripe-lock contention pins the achieved bandwidth to a
  plateau far below hardware peak, so the synchronous write phase grows
  linearly with the data (hundreds of seconds at scale) and every rank
  blocks for all of it.
* **damaris** — one core per node is dedicated to I/O.  A client's visible
  cost is only the node-local shared-memory copy (scale-independent,
  ~0.1 s for 45 MB), after which the dedicated core aggregates the node's
  data and writes it asynchronously, overlapped with the next compute
  phase, in large sequential chunks (shallow seek penalty).
* **dedicated-nodes** — the natural Damaris variant: whole nodes are
  dedicated to I/O and clients forward their data over the interconnect
  instead of through node-local shared memory.  Every core of a compute
  node runs simulation code, but the visible cost is the network drain of
  a whole group's data into its forwarder's NIC — higher than a memory
  copy, still far below any synchronous write — and the few forwarders
  write even larger aggregated chunks against the OSTs.

Each strategy's :meth:`~IOApproach.run_iteration` returns an
:class:`IterationResult` with the per-client *visible* times plus what the
backend did, so the experiment runners in :mod:`repro.experiments` can
derive phase means, aggregate throughput, idle fractions and run times.

Every approach also accepts externally supplied per-client *arrivals*
(offsets into the iteration, generated by :mod:`repro.workloads`), and
splits an iteration at the engine boundary into an :class:`IterationPlan`:
the request batch it puts on the OSTs plus a ``finalize`` closure that
turns the solver's completion times into the :class:`IterationResult`.
An approach states its iteration once, in its draw routine ``_draw``,
which takes every rng draw in the approach's historical order so random
streams never shift.  :meth:`~IOApproach.prepare_iteration` runs it for an
iteration alone, background included, so ``run_iteration`` is
``prepare -> solve -> finalize`` and the replication driver in
:mod:`repro.stats` can stack R prepared batches in one
:func:`~repro.engine.solve_many` call.  :meth:`~IOApproach.plan_iteration`
runs it for composition and leaves the background to the composer, which
samples one per iteration and solves every application's plan as one
contention group over the shared OSTs.  Collective I/O overrides both
instead: alone it is an analytic plateau with a slowdown draw, composed it
is striped streams on the OSTs.

Approaches register themselves by name (:func:`register_approach`), so
experiments and the CLI can select subsets with strings; the paper's
original three remain the default selection.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .engine import (
    NO_INTERFERENCE,
    Interference,
    Machine,
    RequestBatch,
    solve,
)
from .util import FloatArray

__all__ = [
    "IterationResult",
    "IterationPlan",
    "IOApproach",
    "FilePerProcess",
    "Collective",
    "DedicatedCores",
    "DedicatedNodes",
    "APPROACHES",
    "DEFAULT_APPROACH_NAMES",
    "register_approach",
    "resolve_approach",
    "resolve_approaches",
    "approach_names",
]

#: Tiny OS-level noise floor applied to every visible time (log-normal sigma).
_OS_JITTER_SIGMA = 0.03


@dataclass(frozen=True)
class IterationResult:
    """What one simulated iteration of one approach cost."""

    #: Per-client time the *simulation* spends blocked on I/O this iteration.
    visible_times: FloatArray
    #: Wall time until the iteration's data is durable on the OSTs.
    backend_wall_s: float
    #: Time a dedicated core spends busy (0 for synchronous approaches).
    backend_busy_s: float
    #: Bytes made durable this iteration.
    bytes_written: float
    #: Files created this iteration (namespace pressure).
    files_created: int


@dataclass(frozen=True)
class IterationPlan:
    """One approach's iteration, split at the engine boundary.

    ``batch`` is what the approach puts on the OSTs this iteration and
    ``finalize`` turns the completion times of *exactly those requests*
    (in batch order) into the :class:`IterationResult`.  Callers may solve
    the batch alone or merged with other applications' batches — the plan
    does not care who else was contending.  The composer finalizes a
    shared plan once per cell it is solved in, so ``finalize`` must not
    change what it closes over.

    A plan from :meth:`IOApproach.plan_iteration` leaves the background
    to its caller (the composer samples one per iteration), and its
    ``background`` is ``None``.  A plan from
    :meth:`IOApproach.prepare_iteration` has consumed *all* the rng draws
    :meth:`IOApproach.run_iteration` would have, interference background
    included, so R of them from R replication streams can be solved in
    one stacked call and finalized individually, bit-identical to running
    each serially.
    """

    batch: RequestBatch
    large_writes: bool
    finalize: Callable[[FloatArray], IterationResult]
    #: Per-OST background stream count, or ``None`` for a quiet system.
    background: FloatArray | None = None


_EMPTY_BATCH = RequestBatch(
    np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)
)


def _as_offsets(arrivals: npt.ArrayLike | None, n: int) -> FloatArray:
    """Validate externally supplied per-client arrival offsets; none means
    every client starts at 0, one broadcast zero rather than ``n`` of them."""
    if arrivals is None:
        return np.broadcast_to(0.0, (n,))
    offsets = np.asarray(arrivals, dtype=np.float64)
    if offsets.shape != (n,):
        raise ValueError(f"arrivals shape {offsets.shape} does not match {n} clients")
    if offsets.size and not np.all(np.isfinite(offsets) & (offsets >= 0.0)):
        raise ValueError("arrival offsets must be finite and non-negative")
    return offsets


def _group_arrivals(offsets: FloatArray, groups: int) -> FloatArray:
    """When client ``i`` belongs to contiguous chunk ``i*groups//n``, the
    chunk's aggregation can only start once its last client has arrived."""
    if not offsets.any():
        # Periodic arrivals (every offset zero) dominate; skip the split.
        return np.zeros(groups)
    return np.array([float(c.max()) if c.size else 0.0 for c in np.array_split(offsets, groups)])


def _background(
    interference: Interference | None, machine: Machine, rng: np.random.Generator
) -> FloatArray | None:
    """The iteration's background, or ``None`` when the caller samples it."""
    return None if interference is None else interference.sample_background(machine, rng)


class IOApproach:
    """Common interface of the I/O strategies; an approach implements ``_draw``."""

    name: str = "?"

    def clients(self, machine: Machine, ranks: int) -> int:
        """Number of ranks running simulation code (all of them by default)."""
        return ranks

    def run_iteration(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        interference: Interference = NO_INTERFERENCE,
        arrivals: npt.ArrayLike | None = None,
    ) -> IterationResult:
        """One simulated iteration: prepare, solve, finalize."""
        prepared = self.prepare_iteration(
            machine, ranks, data_per_rank, rng, interference, arrivals
        )
        done = solve(
            machine,
            prepared.batch,
            background=prepared.background,
            large_writes=prepared.large_writes,
        )
        return prepared.finalize(done)

    def prepare_iteration(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        interference: Interference = NO_INTERFERENCE,
        arrivals: npt.ArrayLike | None = None,
    ) -> IterationPlan:
        """Draw one iteration alone, background included, and defer its solve.

        The rng draw order is exactly :meth:`run_iteration`'s, so
        preparing R iterations from R replication streams and solving
        their batches stacked reproduces R serial runs bit for bit.
        """
        return self._draw(machine, ranks, data_per_rank, rng, arrivals, interference)

    def plan_iteration(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        arrivals: npt.ArrayLike | None = None,
    ) -> IterationPlan:
        """Draw one iteration for composition; the caller samples the background."""
        return self._draw(machine, ranks, data_per_rank, rng, arrivals, None)

    def _draw(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        arrivals: npt.ArrayLike | None,
        interference: Interference | None,
    ) -> IterationPlan:
        """The approach's one draw routine: every rng draw of an iteration.

        With ``interference=None`` the caller samples the background and
        the plan's is ``None``.  Otherwise the routine samples it at the
        approach's own point in the draw order, which never moves: every
        experiment's random streams depend on it.
        """
        raise NotImplementedError(
            f"approach {self.name!r} ({type(self).__name__}) must implement "
            "_draw(machine, ranks, data_per_rank, rng, arrivals, interference)"
        )

    @staticmethod
    def _jitter(rng: np.random.Generator, n: int) -> FloatArray:
        return rng.lognormal(mean=0.0, sigma=_OS_JITTER_SIGMA, size=n)


class FilePerProcess(IOApproach):
    """Every rank writes its own file: a metadata create storm, then many
    small interleaved streams thrashing the disks at scale."""

    name = "file-per-process"

    def _draw(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        arrivals: npt.ArrayLike | None,
        interference: Interference | None,
    ) -> IterationPlan:
        background = _background(interference, machine, rng)
        offsets = _as_offsets(arrivals, ranks)
        # The metadata server serialises the create storm; rank i's write
        # can only start once it has arrived and its create has been serviced.
        order = rng.permutation(ranks)
        create_done = offsets + (order + 1) / machine.metadata_rate
        osts = rng.permutation(ranks) % machine.ost_count
        batch = RequestBatch(arrival=create_done, ost=osts, nbytes=data_per_rank)
        jitter = self._jitter(rng, ranks)

        def finalize(done: FloatArray) -> IterationResult:
            # A rank is blocked from its own arrival until its write lands.
            visible = (done - offsets) * jitter
            return IterationResult(
                visible_times=visible,
                backend_wall_s=float(done.max()),
                backend_busy_s=0.0,
                bytes_written=float(ranks) * data_per_rank,
                files_created=ranks,
            )

        return IterationPlan(
            batch=batch, large_writes=False, finalize=finalize, background=background
        )


class Collective(IOApproach):
    """Ranks funnel data through MPI-IO aggregators into one shared file;
    stripe-lock contention pins bandwidth to a plateau every rank waits on."""

    name = "collective"

    #: Stripe count of the shared file when composed onto the OSTs.
    plan_stripes = 128

    @staticmethod
    def _sync_cost(ranks: int) -> float:
        # Two-phase I/O synchronisation/shuffle cost grows with the communicator.
        # math.log2: np.log2's AVX-512 loop rounds some integers (3242) differently.
        return 0.05 * math.log2(max(ranks, 2))

    def prepare_iteration(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        interference: Interference = NO_INTERFERENCE,
        arrivals: npt.ArrayLike | None = None,
    ) -> IterationPlan:
        total = float(ranks) * data_per_rank
        # Synchronisation/shuffle, then the shared-file write at the
        # stripe-lock plateau, slowed further by whatever else the file
        # system serves.
        sync = self._sync_cost(ranks)
        slowdown = interference.collective_slowdown(rng)
        write = total / machine.collective_bandwidth * slowdown
        phase = sync + write
        # Every rank blocks from its own arrival until the whole collective
        # — which cannot start before the last rank — completes (plus OS
        # noise).
        offsets = _as_offsets(arrivals, ranks)
        start = float(offsets.max()) if offsets.size else 0.0
        visible = (start + phase - offsets) * self._jitter(rng, ranks)
        result = IterationResult(
            visible_times=visible,
            backend_wall_s=start + phase,
            backend_busy_s=0.0,
            bytes_written=total,
            files_created=1,
        )
        # The plateau model is analytic — nothing lands on the simulated
        # OSTs, so the prepared batch is empty and the result is fixed.
        return IterationPlan(batch=_EMPTY_BATCH, large_writes=True, finalize=lambda done: result)

    def plan_iteration(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        arrivals: npt.ArrayLike | None = None,
    ) -> IterationPlan:
        offsets = _as_offsets(arrivals, ranks)
        total = float(ranks) * data_per_rank
        sync = self._sync_cost(ranks)
        # Composed onto the shared OSTs the plateau becomes an *effective
        # service demand*: striped streams sized so an uncontended write
        # takes exactly ``total / collective_bandwidth`` — stripe-lock
        # inefficiency occupies the OSTs, and any other application's load
        # on the same OSTs slows the collective further (and vice versa).
        write = total / machine.collective_bandwidth
        stripes = min(self.plan_stripes, machine.ost_count)
        start = (float(offsets.max()) if offsets.size else 0.0) + sync
        osts = rng.permutation(machine.ost_count)[:stripes]
        batch = RequestBatch(arrival=start, ost=osts, nbytes=write * machine.ost_bandwidth)
        jitter = self._jitter(rng, ranks)

        def finalize(done: FloatArray) -> IterationResult:
            end = float(done.max())
            visible = (end - offsets) * jitter
            return IterationResult(
                visible_times=visible,
                backend_wall_s=end,
                backend_busy_s=0.0,
                bytes_written=total,
                files_created=1,
            )

        return IterationPlan(batch=batch, large_writes=True, finalize=finalize)


class DedicatedCores(IOApproach):
    """The Damaris approach: one core per node dedicated to I/O."""

    name = "damaris"

    def clients(self, machine: Machine, ranks: int) -> int:
        clients = ranks - machine.nodes_for(ranks)
        if clients < 1:
            raise ValueError(
                f"dedicating one core per node leaves no compute ranks "
                f"(ranks={ranks}, nodes={machine.nodes_for(ranks)}); "
                f"the approach needs at least 2 ranks per node"
            )
        return clients

    def node_bytes(self, machine: Machine, ranks: int, data_per_rank: float) -> float:
        """Bytes one dedicated core aggregates from its node per iteration."""
        nodes = machine.nodes_for(ranks)
        return (self.clients(machine, ranks) / nodes) * data_per_rank

    def _draw(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        arrivals: npt.ArrayLike | None,
        interference: Interference | None,
    ) -> IterationPlan:
        nodes = machine.nodes_for(ranks)
        clients = self.clients(machine, ranks)
        offsets = _as_offsets(arrivals, clients)
        jitter = self._jitter(rng, clients)
        background = _background(interference, machine, rng)
        osts = rng.permutation(nodes) % machine.ost_count
        # Visible cost: the node-local shared-memory copy. Independent of
        # scale and of the file system's state.
        copy = data_per_rank / machine.shm_bandwidth
        # Backend: each dedicated core aggregates its node's client data —
        # once the node's last client has arrived — and writes one large
        # sequential chunk, overlapped with compute.
        node_bytes = self.node_bytes(machine, ranks, data_per_rank)
        node_arrival = _group_arrivals(offsets, nodes)
        batch = RequestBatch(arrival=node_arrival, ost=osts, nbytes=node_bytes)

        def finalize(done: FloatArray) -> IterationResult:
            return IterationResult(
                visible_times=copy * jitter,
                backend_wall_s=float(done.max()),
                backend_busy_s=float((done - node_arrival).mean()),
                bytes_written=node_bytes * nodes,
                files_created=nodes,
            )

        return IterationPlan(
            batch=batch, large_writes=True, finalize=finalize, background=background
        )


class DedicatedNodes(IOApproach):
    """Whole nodes dedicated to I/O, fed over the interconnect.

    One forwarder node serves ``group`` compute nodes.  All cores of a
    compute node run simulation code; at the end of an iteration the group
    pushes its data across the network into the forwarder, whose NIC is
    the shared bottleneck, so the visible cost is the group's data divided
    by the NIC bandwidth.  The forwarder then writes its aggregated data
    asynchronously as one file striped over ``stripes`` OSTs — far fewer,
    far larger streams than dedicated cores, at the price of whole nodes
    lost to the simulation and a network hop in the visible path.
    """

    name = "dedicated-nodes"

    def __init__(self, group: int = 16, stripes: int = 16) -> None:
        if group < 1:
            raise ValueError(f"forwarding group must be >= 1, got {group}")
        if stripes < 1:
            raise ValueError(f"stripe count must be >= 1, got {stripes}")
        self.group = group
        self.stripes = stripes

    def forwarders(self, machine: Machine, ranks: int) -> int:
        """Number of whole nodes dedicated to I/O (ceil of nodes per group)."""
        nodes = machine.nodes_for(ranks)
        forwarders = -(-nodes // (self.group + 1))
        if nodes - forwarders < 1:
            raise ValueError(
                f"dedicating {forwarders} of {nodes} nodes leaves no compute "
                f"nodes (ranks={ranks}); the approach needs at least "
                f"{machine.cores_per_node + 1} ranks"
            )
        return forwarders

    def clients(self, machine: Machine, ranks: int) -> int:
        clients = ranks - self.forwarders(machine, ranks) * machine.cores_per_node
        if clients < 1:
            raise ValueError(f"dedicating whole nodes leaves no compute ranks (ranks={ranks})")
        return clients

    def group_bytes(self, machine: Machine, ranks: int, data_per_rank: float) -> float:
        """Bytes one forwarder ingests from its compute-node group."""
        forwarders = self.forwarders(machine, ranks)
        return (self.clients(machine, ranks) / forwarders) * data_per_rank

    def _draw(
        self,
        machine: Machine,
        ranks: int,
        data_per_rank: float,
        rng: np.random.Generator,
        arrivals: npt.ArrayLike | None,
        interference: Interference | None,
    ) -> IterationPlan:
        forwarders = self.forwarders(machine, ranks)
        clients = self.clients(machine, ranks)
        offsets = _as_offsets(arrivals, clients)
        jitter = self._jitter(rng, clients)
        background = _background(interference, machine, rng)
        stripes = min(self.stripes, machine.ost_count)
        osts = rng.permutation(forwarders * stripes) % machine.ost_count
        group_bytes = self.group_bytes(machine, ranks, data_per_rank)
        # Visible cost: the group's data draining through the forwarder's
        # NIC.  Scale-independent (fixed group size), file-system
        # independent, but slower than a node-local memory copy.
        drain = group_bytes / machine.nic_bandwidth
        # Backend: each forwarder writes its group's data — once the
        # group's last client has arrived — as one file striped over a
        # handful of OSTs, overlapped with the next compute phase.
        group_arrival = _group_arrivals(offsets, forwarders)
        batch = RequestBatch(
            arrival=np.repeat(group_arrival, stripes), ost=osts, nbytes=group_bytes / stripes
        )

        def finalize(done: FloatArray) -> IterationResult:
            durations = done.reshape(forwarders, stripes) - group_arrival[:, None]
            return IterationResult(
                visible_times=drain * jitter,
                backend_wall_s=float(done.max()),
                backend_busy_s=float(drain + durations.max(axis=1).mean()),
                bytes_written=group_bytes * forwarders,
                files_created=forwarders,
            )

        return IterationPlan(
            batch=batch, large_writes=True, finalize=finalize, background=background
        )


_APPROACHES: dict[str, IOApproach] = {}


def register_approach(approach: IOApproach) -> IOApproach:
    """Register ``approach`` under its name; returns it."""
    key = approach.name.lower()
    if key in _APPROACHES:
        raise ValueError(f"approach {approach.name!r} is already registered")
    _APPROACHES[key] = approach
    return approach


def approach_names() -> tuple[str, ...]:
    """The registered approach names, sorted."""
    return tuple(sorted(_APPROACHES))


def resolve_approach(approach: IOApproach | str) -> IOApproach:
    """Accept either an :class:`IOApproach` or a registered name."""
    if isinstance(approach, IOApproach):
        return approach
    try:
        return _APPROACHES[approach.lower()]
    except KeyError:
        raise ValueError(
            f"unknown approach {approach!r}; known: {sorted(_APPROACHES)}"
        ) from None


def resolve_approaches(
    approaches: tuple[IOApproach | str, ...] | list[IOApproach | str] | None,
) -> tuple[IOApproach, ...]:
    """Resolve a selection of approaches; ``None`` means the paper's three."""
    if approaches is None:
        approaches = DEFAULT_APPROACH_NAMES
    return tuple(resolve_approach(a) for a in approaches)


for _approach in (FilePerProcess(), Collective(), DedicatedCores(), DedicatedNodes()):
    register_approach(_approach)

#: The paper's original comparison set, in presentation order.
DEFAULT_APPROACH_NAMES: tuple[str, ...] = ("file-per-process", "collective", "damaris")

#: Backwards-compatible tuple of the paper's three approaches.
APPROACHES: tuple[IOApproach, ...] = resolve_approaches(None)
