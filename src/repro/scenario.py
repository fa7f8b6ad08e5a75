"""Frozen scenario configuration shared by benchmarks and the CLI.

A :class:`ScenarioConfig` pins everything a reproduction run depends on —
machine, weak-scaling ladder, interference model, data volume per rank,
seed, engine backend, and sweep parallelism — in one immutable object.
``benchmarks/_common.py`` folds its environment parsing into
:meth:`ScenarioConfig.from_env`, and ``python -m repro`` builds one from
command-line flags, so both front ends drive the experiment runners with
the same vocabulary.

Environment variables recognised by :meth:`ScenarioConfig.from_env`:

========================  =====================================================
``REPRO_FULL_SCALE``      add the paper's 9216-rank points (``1``/``true``)
``REPRO_MACHINE``         registered machine name (default ``kraken``)
``REPRO_LADDER``          comma-separated rank ladder override
``REPRO_DATA_PER_RANK_MB``  payload per rank in MiB (default 45)
``REPRO_SEED``            base seed, >= 0 (default 0)
``REPRO_ENGINE``          engine backend (``vectorized``/``reference``)
``REPRO_JOBS``            process-pool width for sweeps (default 1)
``REPRO_REPLICATIONS``    independently-seeded replications per experiment
                          cell; > 1 adds CI columns (default 1)
``REPRO_SERVE``           route supporting experiments through the memoized
                          solve service (``1``/``true``; bit-identical)
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

import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import ClassVar

from .engine import Interference, Machine, backend_names, resolve_machine
from .serve import SERVE_ENV
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
    #: Process-pool width for (scale, approach) sweeps; 1 = in-process.
    jobs: int = 1
    #: Independently-seeded replications per experiment cell; > 1 makes
    #: the stochastic experiments report bootstrap-CI column families.
    replications: int = 1
    #: Route supporting experiments through the memoized solve service
    #: (:mod:`repro.serve`); bit-identical to the inline paths.
    serve: bool = False
    #: Background workload override for E9 (``None`` = the default bursty
    #: file-per-process contender).
    workload: Workload | None = None
    #: Directory E9 records per-cell request traces into (``None`` = off).
    trace: str | None = None

    # Constants, not fields: every solve is serial and the solve service
    # runs inline.  perfbench/worker.py still reads both after every run.
    solve_shards: ClassVar[int] = 1
    serve_workers: ClassVar[int] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "machine", resolve_machine(self.machine))
        object.__setattr__(self, "ladder", tuple(int(r) for r in self.ladder))
        if self.backend is not None:
            # Match the engine registry's case-insensitive resolution.
            object.__setattr__(self, "backend", self.backend.lower())
            if self.backend not in backend_names():
                raise ValueError(
                    f"unknown engine backend {self.backend!r}; known: {backend_names()}"
                )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
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
        if "REPRO_LADDER" in env and env["REPRO_LADDER"].strip():
            ladder = tuple(int(part) for part in env["REPRO_LADDER"].split(",") if part.strip())
        else:
            ladder = DEFAULT_LADDER + ((FULL_SCALE_RANKS,) if full_scale else ())
        return cls(
            machine=resolve_machine(env.get("REPRO_MACHINE", "kraken")),
            ladder=ladder,
            data_per_rank=float(env.get("REPRO_DATA_PER_RANK_MB", "45")) * MB,
            seed=env_int(env, "REPRO_SEED", default=0, minimum=0),
            full_scale=full_scale,
            backend=env.get("REPRO_ENGINE") or None,
            jobs=env_int(env, "REPRO_JOBS", default=1),
            replications=env_int(env, "REPRO_REPLICATIONS", default=1),
            serve=env_flag(env, SERVE_ENV),
            workload=Workload.parse(env["REPRO_WORKLOAD"]) if env.get("REPRO_WORKLOAD") else None,
            trace=env.get("REPRO_TRACE") or None,
        )
