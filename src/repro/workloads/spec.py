"""The frozen :class:`Workload` spec: one application's write behavior.

A workload names an application and pins how it writes: how many ranks,
how much data per rank, which arrival process shapes its requests inside
an iteration, and which I/O approach carries them.  Specs are plain
frozen dataclasses (the machine/scenario idiom), validate their registry
names eagerly, and round-trip through a compact ``key=value`` string so
one can live in the ``REPRO_WORKLOAD`` environment variable::

    app=background,ranks=1152,data_mb=45,arrival=burst,approach=file-per-process
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from ..io_models import resolve_approach
from ..util import MB
from .arrivals import resolve_arrival_process

__all__ = ["Workload"]


@dataclass(frozen=True)
class Workload:
    """One application's write workload, frozen."""

    app: str
    ranks: int
    data_per_rank: float = 45 * MB
    #: Registered arrival-process name shaping requests inside an iteration.
    arrival: str = "periodic"
    #: Registered I/O-approach name carrying the requests.
    approach: str = "damaris"

    def __post_init__(self) -> None:
        if not self.app:
            raise ValueError("workload app name must be non-empty")
        ranks = self.ranks
        if isinstance(ranks, bool) or not isinstance(ranks, numbers.Integral) or ranks < 1:
            raise ValueError(f"workload ranks must be an integer >= 1, got {ranks!r}")
        # A plain compare, which NaN fails.
        if not 0.0 < self.data_per_rank < math.inf:
            raise ValueError(
                f"workload data_per_rank must be finite and > 0, got {self.data_per_rank!r}"
            )
        # Normalise through the registries so typos fail at construction,
        # not in the middle of a sweep.
        object.__setattr__(self, "arrival", resolve_arrival_process(self.arrival).name)
        object.__setattr__(self, "approach", resolve_approach(self.approach).name)

    def with_overrides(self, **overrides: object) -> Workload:
        """A copy of this workload with some fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @classmethod
    def parse(cls, spec: str) -> Workload:
        """Build a workload from ``key=value`` pairs (``REPRO_WORKLOAD``)."""
        fields: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ValueError(f"malformed workload field {part!r} in {spec!r}")
            if key == "app":
                fields["app"] = value
            elif key == "ranks":
                try:
                    fields["ranks"] = int(value)
                except ValueError:
                    raise ValueError(
                        f"workload field ranks must be an integer, got {value!r} in {spec!r}"
                    ) from None
            elif key == "data_mb":
                try:
                    fields["data_per_rank"] = float(value) * MB
                except ValueError:
                    raise ValueError(
                        f"workload field data_mb must be a number, got {value!r} in {spec!r}"
                    ) from None
            elif key == "arrival":
                fields["arrival"] = value
            elif key == "approach":
                fields["approach"] = value
            else:
                raise ValueError(
                    f"unknown workload field {key!r} in {spec!r}; "
                    f"known: app, ranks, data_mb, arrival, approach"
                )
        if "app" not in fields or "ranks" not in fields:
            raise ValueError(f"workload spec {spec!r} needs at least app=... and ranks=...")
        return cls(**fields)  # type: ignore[arg-type]

    def spec(self) -> str:
        """The inverse of :meth:`parse` (repr floats round-trip exactly)."""
        return (
            f"app={self.app},ranks={self.ranks},data_mb={self.data_per_rank / MB!r},"
            f"arrival={self.arrival},approach={self.approach}"
        )
