"""External file-system load shared by every simulated iteration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..util import FloatArray
from .machines import Machine

__all__ = ["Interference", "NO_INTERFERENCE"]


@dataclass(frozen=True)
class Interference:
    """External file-system load from applications sharing the machine.

    Each OST carries a Poisson-distributed number of background streams, and
    a few unlucky OSTs are hit by heavy bursts (a checkpoint from another
    job, a RAID rebuild, ...).  Background streams take their processor
    share of the OST and deepen the seek penalty, so a rank whose file lands
    on a bursted OST sees a write that is many times slower than the median
    — the unpredictability the paper measures in §IV.B.
    """

    background_streams: float = 1.2
    burst_probability: float = 0.1
    burst_streams: tuple[int, int] = (4, 12)
    #: Log-normal sigma of the slowdown collective MPI-IO sees per iteration.
    collective_sigma: float = 0.45
    #: Chance that a whole collective write lands during a heavy burst.
    collective_burst_probability: float = 0.25
    collective_burst_slowdown: tuple[float, float] = (2.0, 5.0)

    def __post_init__(self) -> None:
        # Plain compares, which NaN fails; nothing here draws from an rng.
        for name in ("background_streams", "collective_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"Interference {name} must be finite and >= 0, got {value!r}")
        for name in ("burst_probability", "collective_burst_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"Interference {name} must be in [0, 1], got {value!r}")
        for name in ("burst_streams", "collective_burst_slowdown"):
            pair = getattr(self, name)
            if len(pair) != 2 or not 0.0 <= pair[0] <= pair[1] < math.inf:
                raise ValueError(
                    f"Interference {name} must be a finite (lo, hi) pair "
                    f"with 0 <= lo <= hi, got {pair!r}"
                )
        # The sampler's rng.integers would floor a fractional stream count.
        streams = self.burst_streams
        if not all(float(count).is_integer() for count in streams):
            raise ValueError(
                f"Interference burst_streams must be whole stream counts, got {streams!r}"
            )

    def sample_background(self, machine: Machine, rng: np.random.Generator) -> FloatArray:
        """Background stream count per OST for one iteration."""
        load = rng.poisson(self.background_streams, size=machine.ost_count)
        bursts = rng.random(machine.ost_count) < self.burst_probability
        lo, hi = self.burst_streams
        load = load + bursts * rng.integers(lo, hi + 1, size=machine.ost_count)
        return load.astype(np.float64)

    def collective_slowdown(self, rng: np.random.Generator) -> float:
        """Multiplicative slowdown of one collective write phase."""
        slow = float(rng.lognormal(mean=0.0, sigma=self.collective_sigma))
        if rng.random() < self.collective_burst_probability:
            lo, hi = self.collective_burst_slowdown
            slow *= float(rng.uniform(lo, hi))
        return max(slow, 0.5)


#: The quiet file system: no background streams, no bursts, no jitter.
NO_INTERFERENCE = Interference(
    background_streams=0.0,
    burst_probability=0.0,
    collective_sigma=0.0,
    collective_burst_probability=0.0,
)
