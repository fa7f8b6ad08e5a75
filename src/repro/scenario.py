"""Frozen scenario configuration, and the one table of ``REPRO_*`` knobs.

A :class:`ScenarioConfig` pins everything a reproduction run depends on —
machine, weak-scaling ladder, data volume per rank, seed, engine backend
and replication count — in one immutable object, so ``benchmarks/`` and
``python -m repro run`` drive the experiment runners with the same
vocabulary.

:data:`KNOBS` is the documentation of every environment variable the
package reads, and the only code that reads one: each row names the
scenario field the variable sets, the ``run`` flag that sets the same
field, its parser and its help.  A blank variable or flag is unset.
"""

from __future__ import annotations

import argparse
import math
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

from .engine import Machine, backend_names, machine_names, resolve_machine
from .util import MB
from .workloads import Workload

__all__ = ["KNOBS", "Knob", "ScenarioConfig", "DEFAULT_LADDER", "FULL_SCALE_RANKS"]

#: The laptop-friendly weak-scaling ladder (preserves every qualitative shape).
DEFAULT_LADDER: tuple[int, ...] = (576, 1152, 2304)
#: The paper's largest Kraken configuration.
FULL_SCALE_RANKS = 9216


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one reproduction run depends on, frozen."""

    machine: Machine = field(default_factory=lambda: resolve_machine("kraken"))
    ladder: tuple[int, ...] = DEFAULT_LADDER
    data_per_rank: float = 45 * MB
    seed: int = 0
    full_scale: bool = False
    #: Engine backend name, or ``None`` for the process-wide default.
    backend: str | None = None
    #: Independently-seeded replications per experiment cell; > 1 makes
    #: the stochastic experiments report bootstrap-CI column families.
    replications: int = 1
    #: Background workload override for E9 (``None`` = the default bursty
    #: file-per-process contender).
    workload: Workload | None = None
    #: Directory E9 records per-cell request traces into (``None`` = off).
    trace: str | None = None

    # Constants, not fields: sweeps run in-process, experiments solve
    # inline, and so does the solve service.  perfbench/worker.py still
    # reads all four after every run.
    jobs: ClassVar[int] = 1
    solve_shards: ClassVar[int] = 1
    serve: ClassVar[bool] = False
    serve_workers: ClassVar[int] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", resolve_machine(self.machine))
        object.__setattr__(self, "ladder", tuple(int(r) for r in self.ladder))
        if not self.ladder:
            raise ValueError("ladder must hold at least one rung")
        for index, rung in enumerate(self.ladder):
            if rung < 1:
                raise ValueError(f"ladder[{index}] must be >= 1, got {rung}")
        if not (math.isfinite(self.data_per_rank) and self.data_per_rank > 0):
            raise ValueError(f"data_per_rank must be finite and > 0, got {self.data_per_rank}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.backend is not None:
            # Match the engine registry's case-insensitive resolution.
            object.__setattr__(self, "backend", self.backend.lower())
            if self.backend not in backend_names():
                raise ValueError(
                    f"unknown engine backend {self.backend!r}; known: {backend_names()}"
                )
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")

    def with_overrides(self, **overrides: object) -> ScenarioConfig:
        """A copy of this scenario with some fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> ScenarioConfig:
        """Build a scenario from the ``REPRO_*`` variables in ``env`` (default ``os.environ``)."""
        return _from_knobs(env, {})


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable: the scenario field it sets (``None``: read
    elsewhere), the ``run`` flag that sets the same field, parser and help."""

    variable: str
    field: str | None
    flag: str | None
    parse: Callable[[str], Any]
    help: str

    @property
    def switch(self) -> bool:
        """An on/off knob, whose flag takes no value."""
        return self.parse is _switch

    def value(self, text: str) -> Any:
        """``text`` parsed and checked as the knob's field, ``None`` if blank.
        The error, which quotes the text, is argparse's, so ``run`` takes
        this as a flag type."""
        if not text.strip():
            return None
        try:
            value = self.parse(text)
            if self.field is None:
                return value
            return getattr(ScenarioConfig(**{self.field: value}), self.field)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None

    def read(self, env: Mapping[str, str] | None) -> Any:
        """The value in ``env`` (``os.environ`` if ``None``), ``None`` if unset."""
        try:
            return self.value((os.environ if env is None else env).get(self.variable, ""))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{self.variable}: {exc}") from None


def _switch(text: str) -> bool:
    return text.lower() not in ("0", "false", "no", "off", "n")


#: Every environment variable the package reads.
KNOBS: tuple[Knob, ...] = (
    Knob("REPRO_MACHINE", "machine", "--machine", str, f"one of {machine_names()}; default kraken"),
    Knob(
        "REPRO_FULL_SCALE",
        "full_scale",
        "--full-scale",
        _switch,
        "add the 9216-rank points (as a variable: 0, false, no, off or n is off)",
    ),
    Knob(
        "REPRO_LADDER",
        "ladder",
        None,
        lambda text: [int(part) for part in text.split(",") if part.strip()],
        "comma-separated e1/e4 rank ladder, rungs >= 1; replaces the full-scale one",
    ),
    Knob("REPRO_SEED", "seed", "--seed", int, "base seed, >= 0 (default 0)"),
    Knob(
        "REPRO_DATA_PER_RANK_MB",
        "data_per_rank",
        "--data-per-rank-mb",
        lambda text: float(text) * MB,
        "payload per rank in MiB, > 0 (default 45)",
    ),
    Knob(
        "REPRO_ENGINE", "backend", "--backend", str, f"one of {backend_names()}; default vectorized"
    ),
    Knob(
        "REPRO_REPLICATIONS",
        "replications",
        "--replications",
        int,
        "seeded replications per cell; > 1 adds mean/std/cv/p95 and bootstrap-CI columns",
    ),
    Knob(
        "REPRO_WORKLOAD",
        "workload",
        "--workload",
        Workload.parse,
        "background workload of e9 (app=bg,ranks=1152,data_mb=45,arrival=burst,...)",
    ),
    Knob("REPRO_TRACE", "trace", "--trace", str, "directory e9 records request traces into"),
    Knob(
        "REPRO_PERF_STRICT",
        None,
        None,
        _switch,
        "0 makes a failed perf-ratio assertion a PerfWarning; read by repro.bench.timing",
    ),
)


def _from_knobs(env: Mapping[str, str] | None, flags: Mapping[str, Any]) -> ScenarioConfig:
    """The scenario of the knobs in ``env``, where ``flags`` (the values of
    ``run``'s flags by field, ``None`` if not given) win over variables.
    Full scale adds its rung to the default ladder, not to a ``REPRO_LADDER``."""
    values: dict[str, Any] = {}
    for knob in KNOBS:
        if knob.field is not None:
            value = flags.get(knob.field)
            values[knob.field] = knob.read(env) if value is None else value
    values = {name: value for name, value in values.items() if value is not None}
    full_scale = (FULL_SCALE_RANKS,) if values.get("full_scale") else ()
    values.setdefault("ladder", DEFAULT_LADDER + full_scale)
    return ScenarioConfig(**values)
