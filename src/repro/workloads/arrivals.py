"""Arrival-process generators and their registry.

An :class:`ArrivalProcess` turns "``n`` clients write once per iteration"
into *when inside the iteration* each client issues its write, as offsets
from the iteration start.  Every experiment before this package drove the
engine with perfectly periodic checkpoints (all offsets zero); these
generators add the irregular, bursty shapes the paper's jitter claim is
most interesting under:

* **periodic** — the historical behavior, extracted: every client arrives
  at the iteration boundary.
* **jittered** — periodic plus independent per-client OS/network delay,
  uniform over a small fraction of the period.
* **poisson** — a homogeneous Poisson process over a window of the
  period.  Conditioned on its count ``n``, the arrival times of a
  homogeneous Poisson process are order statistics of uniforms, so the
  sample is exact, not approximate.
* **burst** — an *inhomogeneous* Poisson process (a quiet base rate with
  heavy bursts) sampled by thinning: candidates drawn at the peak rate
  are accepted with probability ``rate(t) / peak``, the classic exact
  method for inhomogeneous-Poisson simulation.

Processes register by name (mirroring machines and approaches) and all
randomness flows through the caller's generator, so workload streams are
seeded through the same crc32 name-hash scheme as everything else.
"""

from __future__ import annotations

import numpy as np

from ..util import FloatArray

__all__ = [
    "ArrivalProcess",
    "Periodic",
    "Jittered",
    "PoissonArrivals",
    "BurstArrivals",
    "register_arrival_process",
    "resolve_arrival_process",
    "arrival_process_names",
]


class ArrivalProcess:
    """Common interface: per-client arrival offsets within one iteration."""

    name: str = "?"

    def sample(self, rng: np.random.Generator, n: int, period: float) -> FloatArray:
        """Offsets (seconds from iteration start) of ``n`` clients' writes."""
        raise NotImplementedError

    @staticmethod
    def _check(n: int, period: float) -> None:
        if n < 0:
            raise ValueError(f"client count must be >= 0, got {n}")
        if period <= 0.0:
            raise ValueError(f"iteration period must be > 0, got {period}")


class Periodic(ArrivalProcess):
    """Everyone writes at the iteration boundary (the historical behavior)."""

    name = "periodic"

    def sample(self, rng: np.random.Generator, n: int, period: float) -> FloatArray:
        self._check(n, period)
        return np.zeros(n)


class Jittered(ArrivalProcess):
    """Periodic with independent per-client delay, uniform over
    ``spread * period`` — desynchronised clocks, OS noise, straggling
    communication."""

    name = "jittered"

    def __init__(self, spread: float = 0.05) -> None:
        if not 0.0 <= spread <= 1.0:
            raise ValueError(f"spread must be within [0, 1], got {spread}")
        self.spread = spread

    def sample(self, rng: np.random.Generator, n: int, period: float) -> FloatArray:
        self._check(n, period)
        return rng.uniform(0.0, self.spread * period, n)


class PoissonArrivals(ArrivalProcess):
    """A homogeneous Poisson process over ``window * period``.

    Conditioned on ``n`` events, homogeneous-Poisson arrival times are
    the order statistics of ``n`` uniforms over the window — an exact
    sample with no rate parameter to tune.
    """

    name = "poisson"

    def __init__(self, window: float = 0.5) -> None:
        if not 0.0 < window <= 1.0:
            raise ValueError(f"window must be within (0, 1], got {window}")
        self.window = window

    def sample(self, rng: np.random.Generator, n: int, period: float) -> FloatArray:
        self._check(n, period)
        return np.sort(rng.uniform(0.0, self.window * period, n))


class BurstArrivals(ArrivalProcess):
    """An inhomogeneous Poisson process — quiet base rate plus heavy
    bursts — sampled exactly by thinning.

    The rate over ``[0, window * period)`` is ``base_rate`` outside and
    ``burst_rate`` inside ``bursts`` randomly-centred windows of width
    ``burst_width * window * period``.  Candidates drawn at the peak rate
    are kept with probability ``rate(t) / burst_rate`` until ``n`` have
    been accepted, which is exactly a conditioned inhomogeneous-Poisson
    sample: arrivals pile into the bursts (another application's
    checkpoint storm) with a thin background in between.
    """

    name = "burst"

    def __init__(
        self,
        window: float = 0.5,
        bursts: int = 2,
        burst_width: float = 0.05,
        base_rate: float = 1.0,
        burst_rate: float = 25.0,
    ) -> None:
        if not 0.0 < window <= 1.0:
            raise ValueError(f"window must be within (0, 1], got {window}")
        if bursts < 1:
            raise ValueError(f"burst count must be >= 1, got {bursts}")
        if not 0.0 < burst_width <= 1.0:
            raise ValueError(f"burst width must be within (0, 1], got {burst_width}")
        if base_rate <= 0.0:
            raise ValueError(f"base rate must be > 0, got {base_rate}")
        if burst_rate < base_rate:
            raise ValueError(f"burst rate must be >= base rate, got {burst_rate} < {base_rate}")
        self.window = window
        self.bursts = bursts
        self.burst_width = burst_width
        self.base_rate = base_rate
        self.burst_rate = burst_rate

    def _rate(self, t: FloatArray, horizon: float, centers: FloatArray) -> FloatArray:
        half = 0.5 * self.burst_width * horizon
        # One pass per centre: no (candidates x bursts) matrix.
        in_burst = np.zeros(t.shape, dtype=bool)
        for center in centers:
            in_burst |= np.abs(t - center) <= half
        return np.where(in_burst, self.burst_rate, self.base_rate)

    def sample(self, rng: np.random.Generator, n: int, period: float) -> FloatArray:
        self._check(n, period)
        horizon = self.window * period
        centers = rng.uniform(0.0, horizon, self.bursts)
        accepted = np.empty(0)
        chunk = max(4 * n, 64)
        while accepted.size < n:
            candidates = rng.uniform(0.0, horizon, chunk)
            keep = rng.uniform(0.0, self.burst_rate, chunk) < self._rate(
                candidates, horizon, centers
            )
            accepted = np.concatenate([accepted, candidates[keep]])
        return np.sort(accepted[:n])


_PROCESSES: dict[str, ArrivalProcess] = {}


def register_arrival_process(
    process: ArrivalProcess, *, replace_existing: bool = False
) -> ArrivalProcess:
    """Register ``process`` under its name; returns it."""
    key = process.name.lower()
    if not replace_existing and key in _PROCESSES:
        raise ValueError(f"arrival process {process.name!r} is already registered")
    _PROCESSES[key] = process
    return process


def arrival_process_names() -> tuple[str, ...]:
    """The registered arrival-process names, sorted."""
    return tuple(sorted(_PROCESSES))


def resolve_arrival_process(process: ArrivalProcess | str) -> ArrivalProcess:
    """Accept either an :class:`ArrivalProcess` or a registered name."""
    if isinstance(process, ArrivalProcess):
        return process
    try:
        return _PROCESSES[process.lower()]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {process!r}; known: {sorted(_PROCESSES)}"
        ) from None


for _process in (Periodic(), Jittered(), PoissonArrivals(), BurstArrivals()):
    register_arrival_process(_process)
