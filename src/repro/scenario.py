"""Frozen scenario configuration shared by benchmarks and the CLI.

A :class:`ScenarioConfig` pins everything a reproduction run depends on —
machine, weak-scaling ladder, interference model, data volume per rank,
seed, engine backend and replication count — in one immutable object.
``benchmarks/_common.py`` folds its environment parsing into
:meth:`ScenarioConfig.from_env`, and ``python -m repro`` builds one from
command-line flags, so both front ends drive the experiment runners with
the same vocabulary.

Environment variables recognised by :meth:`ScenarioConfig.from_env`:

========================  =====================================================
``REPRO_FULL_SCALE``      add the paper's 9216-rank points (``1``/``true``)
``REPRO_MACHINE``         registered machine name (default ``kraken``)
``REPRO_LADDER``          comma-separated rank ladder override, rungs >= 1
``REPRO_DATA_PER_RANK_MB``  payload per rank in MiB, > 0 (default 45)
``REPRO_SEED``            base seed, >= 0 (default 0)
``REPRO_ENGINE``          engine backend (``vectorized``/``reference``)
``REPRO_REPLICATIONS``    independently-seeded replications per experiment
                          cell; > 1 adds CI columns (default 1)
``REPRO_WORKLOAD``        background workload spec for E9
                          (``app=bg,ranks=1152,data_mb=45,arrival=burst,...``)
``REPRO_TRACE``           directory E9 records request traces into (JSONL)
``REPRO_PERF_STRICT``     ``0`` downgrades perf-ratio assertion failures to
                          warnings (noisy shared runners; default strict —
                          consumed by :mod:`repro.bench.timing`, not stored
                          on the scenario)
========================  =====================================================
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import ClassVar

from .engine import Interference, Machine, backend_names, resolve_machine
from .util import MB, env_flag, env_int
from .workloads import Workload

__all__ = ["ScenarioConfig", "DEFAULT_LADDER", "FULL_SCALE_RANKS"]

#: The laptop-friendly weak-scaling ladder (preserves every qualitative shape).
DEFAULT_LADDER: tuple[int, ...] = (576, 1152, 2304)
#: The paper's largest Kraken configuration.
FULL_SCALE_RANKS = 9216


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one reproduction run depends on, frozen."""

    machine: Machine = field(default_factory=lambda: resolve_machine("kraken"))
    ladder: tuple[int, ...] = DEFAULT_LADDER
    interference: Interference = field(default_factory=Interference)
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

    @property
    def top_ranks(self) -> int:
        """The largest rung of the ladder (single-scale experiments use it)."""
        return max(self.ladder)

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> ScenarioConfig:
        """Build a scenario from ``REPRO_*`` environment variables."""
        if env is None:
            env = os.environ
        full_scale = env_flag(env, "REPRO_FULL_SCALE")
        raw_ladder = env.get("REPRO_LADDER", "")
        if raw_ladder.strip():
            try:
                ladder = tuple(int(part) for part in raw_ladder.split(",") if part.strip())
            except ValueError:
                raise ValueError(
                    f"REPRO_LADDER must be comma-separated integers, got {raw_ladder!r}"
                ) from None
        else:
            ladder = DEFAULT_LADDER + ((FULL_SCALE_RANKS,) if full_scale else ())
        raw_mb = env.get("REPRO_DATA_PER_RANK_MB", "45")
        try:
            data_per_rank = float(raw_mb) * MB
        except ValueError:
            raise ValueError(f"REPRO_DATA_PER_RANK_MB must be a number, got {raw_mb!r}") from None
        return cls(
            machine=resolve_machine(env.get("REPRO_MACHINE", "kraken")),
            ladder=ladder,
            data_per_rank=data_per_rank,
            seed=env_int(env, "REPRO_SEED", default=0, minimum=0),
            full_scale=full_scale,
            backend=env.get("REPRO_ENGINE") or None,
            replications=env_int(env, "REPRO_REPLICATIONS", default=1),
            workload=Workload.parse(env["REPRO_WORKLOAD"]) if env.get("REPRO_WORKLOAD") else None,
            trace=env.get("REPRO_TRACE") or None,
        )
