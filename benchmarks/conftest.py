"""Shared fixtures of the benchmark harness.

Each benchmark regenerates one experiment of the paper's evaluation (see
DESIGN.md, "Experiment index").  ``_common.bench_table`` builds the run
from the experiment table :data:`repro.experiments.EXPERIMENTS` — the
one ``python -m repro run`` reads — on the frozen
:class:`repro.scenario.ScenarioConfig` that ``_common.scenario()`` parses
from the ``REPRO_*`` environment, so machine, ladder, data volume, seed,
engine backend and replications all apply; ``REPRO_FULL_SCALE=1`` adds
the paper's full 9216-rank Kraken points (slower).

Wall-clock numbers for CI live in ``repro.bench`` (``python -m repro
bench``); these modules are about the experiment *tables*.  The fallback
``benchmark`` fixture used when pytest-benchmark is absent therefore
runs the target once — but through the same :func:`repro.bench.time_once`
clock as the bench harness, so even ad-hoc timings printed here are
measured identically.
"""

from __future__ import annotations

import pytest

from repro.bench import time_once


class _HarnessBenchmark:
    """Stand-in for the pytest-benchmark fixture: one timed run via repro.bench."""

    def pedantic(self, target, args=(), kwargs=None, *, setup=None, **_options):
        # Mirror benchmark.pedantic's interface: an optional setup() may
        # supply (args, kwargs); timing options (rounds, iterations,
        # warmup_rounds, ...) are accepted and ignored.
        if setup is not None:
            produced = setup()
            if produced is not None:
                if args or kwargs:
                    raise TypeError(
                        "Can't use `args` or `kwargs` if `setup` returns the arguments."
                    )
                args, kwargs = produced
        return self(target, *args, **(kwargs or {}))

    def __call__(self, target, *args, **kwargs):
        seconds, value = time_once(lambda: target(*args, **kwargs))
        name = getattr(target, "__name__", repr(target))
        print(f"[repro.bench] {name}: {seconds * 1000:.1f} ms")
        return value


class _FallbackBenchmarkPlugin:
    @pytest.fixture
    def benchmark(self):
        return _HarnessBenchmark()


def pytest_configure(config):
    # Keep the suite runnable when pytest-benchmark is missing or not
    # loaded (uninstalled, -p no:benchmark, PYTEST_DISABLE_PLUGIN_AUTOLOAD):
    # only then register a no-op benchmark fixture, so the real plugin is
    # never shadowed when it is active.
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_FallbackBenchmarkPlugin(), "fallback-benchmark")
