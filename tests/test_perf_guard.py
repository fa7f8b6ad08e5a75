"""Perf guards for the engine's fast paths, driven by ``repro.bench``.

Each guard is a ratio assertion over *suite benchmarks*: the suite in
:mod:`repro.bench.suite` pairs every fast path with the slow path it
replaced (vectorized/reference solver, stacked/serial ``solve_many``,
batched/serial replication driver, sustained/inline solve service), this
module times both sides through the shared best-of-N harness and asserts
the speedup:

* vectorized solver not slower than the reference on the 2304-rank
  create storm + flush (measured gap ≥5x at full scale);
* stacked :func:`~repro.engine.solve_many` keeps pace with the serial
  per-batch loop on E2's 150 replication batches (both sides run numpy
  passes; measured 0.90-1.50x);
* the end-to-end batched replication driver not slower than the serial
  ``run_iteration`` loop (measured 1.05-1.89x);
* the solve service at least 3x inline per-request solving on
  overlapping traffic.

Best-of-N timing absorbs most shared-runner noise; for runners where
that is still not enough, ``REPRO_PERF_STRICT=0`` downgrades a failed
ratio to a :class:`~repro.bench.PerfWarning` (the CI test matrix uses
it; the dedicated ``bench-perf`` job stays strict).
"""

from __future__ import annotations

import warnings

import pytest

from repro.bench import PerfWarning, assert_speedup, measure, resolve_benchmark


def _best(name: str, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds of a suite benchmark's timed run."""
    run, _work = resolve_benchmark(name).make()
    return measure(run, repeats=repeats, warmup=1).best


def test_vectorized_not_slower_than_reference():
    vec = _best("micro.solve.vectorized")
    ref = _best("micro.solve.reference")
    assert_speedup(vec, ref, ratio=1.0, label="vectorized vs reference solver")


def test_stacked_solve_many_keeps_pace_with_serial_loop():
    """Stacked solve_many must not fall clearly behind the per-batch loop.

    R replications' request batches solved in one wide numpy call
    instead of R x iterations separate solves, on E2's full-scale
    workload.  Each serial batch (2304 equal writes on 336 OSTs) runs
    the lockstep FIFO sweep, so both sides do the same element-wise
    numpy work and stacking saves only the per-call overhead: ten strict
    suite runs on a 2-vCPU host read 0.90-1.50x.  The bound sits below
    the smallest reading; the CI baseline gate guards the stacked
    solve's absolute time.
    """
    batched = _best("micro.solve_many.stacked")
    serial = _best("micro.solve_many.serial")
    assert_speedup(batched, serial, ratio=0.8, label="stacked solve_many vs serial loop")


def test_batched_replication_driver_beats_serial():
    """End to end, the batched replication driver must not fall behind
    the serial loop.

    Covers all three E2 approaches at full scale, rng and finalize
    included.  The serial side's staggered batches run the lockstep
    sweep too, grouped by the radix lane sort, so stacking saves mostly
    per-call overhead: 32 readings on a 2-vCPU host (ten strict runs of
    this file, 12 replays of its four guards, ten ``bench --filter
    micro.replication`` runs) read 1.05-1.89x, with the stacked side at
    171-262 ms.  The bound sits below the smallest reading; the CI
    baseline gate guards the stacked driver's absolute time.
    """
    batched = _best("micro.replication.driver_batched", repeats=2)
    serial = _best("micro.replication.driver_serial", repeats=2)
    assert_speedup(batched, serial, ratio=1.0, label="batched vs serial replication driver")


def test_serve_sustained_beats_inline_3x():
    """The solve service >= 3x inline per-request solving on overlapping
    traffic.

    The registered 10240-request stream revisits 1280 unique cells 8
    times; the service pays hashing + dedup + one coalesced solve per
    unique cell where the inline loop pays 10240 full solves.  Measured
    gap ~6-7x (the committed ``macro.serve.sustained`` history records
    the >=5x acceptance number); asserted at 3x for noise margin.
    """
    service = _best("macro.serve.sustained", repeats=2)
    inline = _best("macro.serve.inline", repeats=2)
    assert_speedup(service, inline, ratio=3.0, label="solve service vs inline solving")


def test_perf_strict_escape_hatch_downgrades_to_warning(monkeypatch):
    monkeypatch.setenv("REPRO_PERF_STRICT", "0")
    with pytest.warns(PerfWarning, match="escape-hatch demo"):
        assert_speedup(2.0, 1.0, ratio=1.0, label="escape-hatch demo")


def test_perf_strict_escape_hatch_survives_the_suite_warning_filters(monkeypatch):
    # The suite turns RuntimeWarnings into errors, and PerfWarning is one:
    # without its own filter, REPRO_PERF_STRICT=0 would fail the run anyway.
    # No pytest.warns here, since that installs a filter of its own.
    monkeypatch.setenv("REPRO_PERF_STRICT", "0")
    with warnings.catch_warnings(record=True) as caught:
        assert_speedup(2.0, 1.0, ratio=1.0, label="escape hatch under the suite filters")
    assert [warning.category for warning in caught] == [PerfWarning]


def test_perf_strict_default_raises(monkeypatch):
    monkeypatch.delenv("REPRO_PERF_STRICT", raising=False)
    with pytest.raises(AssertionError, match="strict demo"):
        assert_speedup(2.0, 1.0, ratio=1.0, label="strict demo")
    # A passing expectation is silent either way.
    assert_speedup(1.0, 3.5, ratio=3.0, label="strict demo")
