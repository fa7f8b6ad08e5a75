"""The experiment table: the runner calls behind each experiment's tables.

``python -m repro run`` and the ``benchmarks/`` modules both read
:data:`EXPERIMENTS`.  Runners and checks are named as strings and looked
up on :mod:`repro.experiments` at call time, so a rebound package
attribute (a tracer's span wrapper, a test's monkeypatch) sees every call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..scenario import FULL_SCALE_RANKS, ScenarioConfig
from ..table import Table

__all__ = ["EXPERIMENTS", "TableSpec"]


def _named(name: str) -> Any:
    from .. import experiments

    return getattr(experiments, name)


@dataclass(frozen=True)
class TableSpec:
    """One table of an experiment: the runner call that builds it, and its check."""

    #: Name of the ``repro.experiments`` runner; the table is named after it.
    runner: str
    #: Name of the ``repro.experiments`` shape check, if the table has one.
    check: str | None
    #: The runner's keyword arguments for a scenario and an artifact directory.
    kwargs: Callable[[ScenarioConfig, str], dict[str, Any]]

    @property
    def name(self) -> str:
        """The table's name: the runner's, without ``run_``."""
        return self.runner.removeprefix("run_")

    def build(self, scenario: ScenarioConfig, output_dir: str) -> Table:
        """Call the runner on the scenario's arguments."""
        table: Table = _named(self.runner)(**self.kwargs(scenario, output_dir))
        return table

    def verify(self, table: Table) -> None:
        """Apply the shape check, if there is one."""
        if self.check is not None:
            _named(self.check)(table)


def _cell(sc: ScenarioConfig, **kwargs: Any) -> dict[str, Any]:
    """A stochastic runner's arguments: the scenario's cell plus ``kwargs``."""
    return {
        "data_per_rank": sc.data_per_rank,
        "machine": sc.machine,
        "seed": sc.seed,
        "replications": sc.replications,
        **kwargs,
    }


def _scheduling(sc: ScenarioConfig, output_dir: str) -> dict[str, Any]:
    if sc.full_scale:
        return _cell(sc, ranks=FULL_SCALE_RANKS)
    # The scheduling claim needs writers to outnumber OSTs; reach the
    # over-subscribed regime cheaply by shrinking the file system.
    return _cell(sc, ranks=2304, machine=sc.machine.with_overrides(ost_count=96))


#: Experiment id -> the tables it prints, in order.  Arguments a runner
#: defaults (iterations, compute time) are left to the runner.
EXPERIMENTS: dict[str, tuple[TableSpec, ...]] = {
    "e1": (
        TableSpec(
            "run_weak_scaling", "check_scaling_shape", lambda sc, _: _cell(sc, scales=sc.ladder)
        ),
    ),
    "e2": (
        TableSpec(
            "run_variability",
            "check_variability_shape",
            lambda sc, _: _cell(sc, ranks=2304 if sc.full_scale else 1152),
        ),
    ),
    "e3": (
        TableSpec(
            "run_throughput",
            "check_throughput_shape",
            lambda sc, _: _cell(sc, ranks=FULL_SCALE_RANKS if sc.full_scale else 2304),
        ),
    ),
    "e4": (
        TableSpec(
            "run_spare_time", "check_spare_time_shape", lambda sc, _: _cell(sc, scales=sc.ladder)
        ),
    ),
    "e5": (
        TableSpec(
            "run_compression",
            "check_compression_shape",
            lambda sc, out: {"output_dir": out, "machine": sc.machine, "seed": sc.seed},
        ),
    ),
    "e6": (TableSpec("run_scheduling", "check_scheduling_shape", _scheduling),),
    "e7": (
        TableSpec(
            "run_insitu_scaling",
            "check_insitu_shape",
            lambda sc, _: {
                "scales": (92, 184, 368, 736) if sc.full_scale else (92, 184, 368),
                "machine": sc.machine,
                "seed": sc.seed,
                "replications": sc.replications,
            },
        ),
        TableSpec("run_insitu_backpressure", None, lambda sc, _: {"machine": sc.machine}),
    ),
    "e8": (
        TableSpec("run_usability", "check_usability_shape", lambda _, out: {"output_dir": out}),
    ),
    "e9": (
        TableSpec(
            "run_app_interference",
            "check_app_interference_shape",
            lambda sc, _: _cell(
                sc,
                ranks=2304 if sc.full_scale else 1152,
                background=sc.workload,
                trace_dir=sc.trace,
            ),
        ),
    ),
}
