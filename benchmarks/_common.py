"""Helpers shared by the benchmark modules.

Every module builds its run from the experiment table
(:data:`repro.experiments.EXPERIMENTS`), the same table
``python -m repro run`` reads, on the frozen
:class:`~repro.scenario.ScenarioConfig` that
:meth:`~repro.scenario.ScenarioConfig.from_env` parses from the
``REPRO_*`` environment.  So the knobs of ``run`` — replications
included — reach the benchmarks as environment variables, and each run
solves on the scenario's backend in a ``use_backend`` scope, as ``run``
does.  Timing, when a module wants it, comes from the shared
:mod:`repro.bench` harness — never a bespoke ``time.perf_counter`` loop —
so every number in this repo is reduced the same way (warmup +
best-of-N; see DESIGN.md, "Benchmarking").  The fallback ``benchmark`` fixture in ``conftest.py``
already routes through :func:`repro.bench.time_once`.
"""

from __future__ import annotations

from repro import experiments
from repro.engine import default_backend, use_backend
from repro.scenario import ScenarioConfig
from repro.table import Table

__all__ = ["scenario", "bench_table", "print_table"]


def scenario() -> ScenarioConfig:
    """The frozen run configuration parsed from the ``REPRO_*`` environment."""
    return ScenarioConfig.from_env()


def bench_table(
    benchmark,
    experiment: str,
    index: int = 0,
    *,
    sc: ScenarioConfig | None = None,
    output_dir: str = "",
) -> Table:
    """Run table ``index`` of ``experiment`` once, print it and apply its check.

    ``sc`` defaults to :func:`scenario`; ``output_dir`` is the artifact
    directory of the experiments that write files (E5, E8).
    """
    sc = scenario() if sc is None else sc
    spec = experiments.EXPERIMENTS[experiment][index]
    runner = getattr(experiments, spec.runner)
    with use_backend(sc.backend or default_backend()):
        table = benchmark.pedantic(
            runner, kwargs=spec.kwargs(sc, output_dir), rounds=1, iterations=1
        )
    print_table(table)
    spec.verify(table)
    return table


def print_table(table) -> None:
    """Render an experiment table under the benchmark output."""
    print()
    print(table.to_text())
