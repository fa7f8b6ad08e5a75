"""Wall-clock timing harness shared by benchmarks and perf guards.

One clock, one reduction, everywhere: :func:`measure` runs a callable
``warmup`` times untimed (allocator, lazy imports, branch predictors),
then ``repeats`` timed rounds, and returns a :class:`Timing` whose
*best* (min) is the headline number.  Best-of-N is the noise-robust
statistic on shared CI runners — external load can only ever make a
round slower, never faster — while median/mean/stddev are kept for the
machine-readable record.

Perf-*ratio* assertions (vectorized vs reference, batched vs serial)
route through :func:`assert_speedup`, which honours the
``REPRO_PERF_STRICT`` knob of :data:`repro.scenario.KNOBS`: the default
is a hard ``AssertionError``, while ``REPRO_PERF_STRICT=0`` downgrades a
failed expectation to a :class:`PerfWarning` so noisy shared runners
(the CI test matrix) cannot flake a build.  The dedicated ``bench-perf``
CI job leaves the flag strict and additionally gates on the JSON
baseline.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from statistics import fmean, median, stdev

from ..scenario import KNOBS

__all__ = [
    "PerfWarning",
    "Timing",
    "measure",
    "time_once",
    "perf_strict",
    "assert_speedup",
]


class PerfWarning(RuntimeWarning):
    """A performance expectation failed while ``REPRO_PERF_STRICT=0``."""


def time_once(fn: Callable[[], object]) -> tuple[float, object]:
    """Run ``fn`` once; return ``(elapsed_seconds, return_value)``."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


@dataclass(frozen=True)
class Timing:
    """The timed rounds of one benchmark run, with derived statistics."""

    #: Per-round wall-clock seconds, in execution order.
    times: tuple[float, ...]
    #: Untimed rounds executed before the first entry of ``times``.
    warmup: int = 0

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("Timing needs at least one timed round")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))

    @property
    def repeats(self) -> int:
        return len(self.times)

    @property
    def best(self) -> float:
        """Minimum round time — the noise-robust headline statistic."""
        return min(self.times)

    @property
    def median(self) -> float:
        return median(self.times)

    @property
    def mean(self) -> float:
        return fmean(self.times)

    @property
    def stddev(self) -> float:
        """Sample standard deviation across rounds (0.0 for one round)."""
        return stdev(self.times) if len(self.times) > 1 else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form, statistics materialised for the record."""
        return {
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seconds": list(self.times),
            "best_s": self.best,
            "median_s": self.median,
            "mean_s": self.mean,
            "stddev_s": self.stddev,
        }


def measure(fn: Callable[[], object], *, repeats: int = 5, warmup: int = 1) -> Timing:
    """Time ``fn`` over ``repeats`` rounds after ``warmup`` untimed runs."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    return Timing(
        times=tuple(time_once(fn)[0] for _ in range(repeats)),
        warmup=warmup,
    )


_PERF_STRICT = next(knob for knob in KNOBS if knob.variable == "REPRO_PERF_STRICT")


def perf_strict(env: Mapping[str, str] | None = None) -> bool:
    """Whether perf-ratio assertion failures are hard errors (default yes)."""
    return _PERF_STRICT.read(env) is not False


def assert_speedup(fast_s: float, slow_s: float, *, ratio: float, label: str) -> None:
    """Require ``fast_s`` to be at least ``ratio``x faster than ``slow_s``.

    ``ratio=1.0`` means "not slower".  Under ``REPRO_PERF_STRICT=0`` a
    failed expectation warns (:class:`PerfWarning`) instead of raising,
    so the functional CI matrix survives noisy shared runners while the
    dedicated ``bench-perf`` job stays strict.
    """
    if fast_s * ratio <= slow_s:
        return
    message = (
        f"{label}: {fast_s * 1000:.1f} ms not {ratio:g}x faster than {slow_s * 1000:.1f} ms "
        f"(observed {slow_s / fast_s if fast_s else float('inf'):.2f}x)"
    )
    if perf_strict():
        raise AssertionError(message)
    warnings.warn(message, PerfWarning, stacklevel=2)
