"""Cross-validation of the engine backends plus pinned headline values.

The vectorized backend must reproduce the reference backend's completion
times on every workload shape the I/O models generate (simultaneous
flushes, staggered create storms, mixed sizes, background interference),
and the experiment tables built on top must keep the paper's headline
orderings bit-for-bit across the refactor (golden seed 0).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    EXASCALE,
    KRAKEN,
    NO_INTERFERENCE,
    Interference,
    RequestBatch,
    backend_names,
    default_backend,
    solve,
    solve_many,
    use_backend,
    vectorized,
)
from repro.experiments import run_throughput, run_weak_scaling
from repro.io_models import APPROACHES, DedicatedCores, FilePerProcess
from repro.util import MB


def _both(batch, *, background=None, large_writes):
    vec = solve(
        KRAKEN, batch, background=background, large_writes=large_writes, backend="vectorized"
    )
    ref = solve(
        KRAKEN, batch, background=background, large_writes=large_writes, backend="reference"
    )
    return vec, ref


def _assert_backends_agree(batch, *, background=None, large_writes):
    vec, ref = _both(batch, background=background, large_writes=large_writes)
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-6)


# -- backend plumbing -----------------------------------------------------


def test_backend_registry():
    assert set(backend_names()) >= {"vectorized", "reference"}
    assert default_backend() == "vectorized"


def test_use_backend_restores_default():
    with use_backend("reference"):
        assert default_backend() == "reference"
    assert default_backend() == "vectorized"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        solve(KRAKEN, RequestBatch(0.0, 0, MB), large_writes=True, backend="gpu")


def test_unknown_default_backend_names_repro_engine():
    # An unknown default can only come from REPRO_ENGINE: importing and
    # pinning a backend must not fail, and the first solve that uses the
    # default names the variable.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "from repro.engine import KRAKEN, RequestBatch, solve, use_backend\n"
        "batch = RequestBatch(0.0, 0, 1.0)\n"
        "with use_backend('reference'):\n"
        "    solve(KRAKEN, batch, large_writes=True)\n"
        "try:\n"
        "    solve(KRAKEN, batch, large_writes=True)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "REPRO_ENGINE": "Bogus"}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == (
        f"REPRO_ENGINE must name a backend {backend_names()}, got 'Bogus'"
    )


def test_every_layer_above_solve_follows_the_default_backend(monkeypatch):
    # The backend is chosen in one place, the engine's default: every
    # stacked path must reach the backend use_backend selects, and none
    # may pick vectorized by itself.
    from repro.engine import api, solve_groups
    from repro.engine.vectorized import solve_vectorized
    from repro.experiments import run_scheduling, run_spare_time
    from repro.serve import SolveRequest, SolveService
    from repro.stats import run_replications
    from repro.workloads import Workload, replay_trace, run_composition

    solved = []

    def counting(machine, batch, background, large_writes):
        solved.append(len(batch))
        return solve_vectorized(machine, batch, background, large_writes)

    def forbidden(*args):
        raise AssertionError("a layer above solve picked the vectorized backend")

    monkeypatch.setitem(api._BACKENDS, "counting", counting)
    monkeypatch.setitem(api._BACKENDS, "vectorized", forbidden)
    batch = RequestBatch(arrival=[0.0, 0.5], ost=[0, 0], nbytes=MB)
    workloads = [
        Workload(app="sim", ranks=96, approach="damaris"),
        Workload(app="bg", ranks=48, arrival="burst", approach="file-per-process"),
    ]

    def reaches(name, run):
        before = len(solved)
        out = run()
        assert len(solved) > before, name
        return out

    def flush():
        service = SolveService()
        service.submit(SolveRequest(KRAKEN, batch))
        return service.flush()

    with use_backend("counting"):
        reaches("solve_groups", lambda: solve_groups(KRAKEN, [[batch, batch]], large_writes=False))
        reaches("solve_many", lambda: solve_many(KRAKEN, [batch, batch], large_writes=False))
        cell = ("damaris", KRAKEN, 96, 2, MB, 0, 2)
        reaches("run_replications", lambda: run_replications(*cell))
        reaches("serial run_replications", lambda: run_replications(*cell, batched=False))
        reaches("run_spare_time", lambda: run_spare_time(scales=[96], iterations=1))
        small = KRAKEN.with_overrides(ost_count=8)
        reaches("run_scheduling", lambda: run_scheduling(192, small))
        out = reaches("run_composition", lambda: run_composition(KRAKEN, workloads, 2, period=60.0))
        reaches("replay_trace", lambda: replay_trace(out.trace))
        reaches("SolveService.flush", flush)


def test_empty_batch():
    empty = RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    for backend in ("vectorized", "reference"):
        done = solve(KRAKEN, empty, large_writes=True, backend=backend)
        assert done.size == 0


# -- RequestBatch container ------------------------------------------------


def test_batch_broadcasts_scalars():
    batch = RequestBatch(arrival=0.0, ost=[1, 2, 3], nbytes=45 * MB)
    assert len(batch) == 3
    np.testing.assert_array_equal(batch.arrival, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(batch.nbytes, [45 * MB] * 3)


def test_batch_fields_are_read_only_views():
    # Full-length inputs are stored as read-only views (broadcast_to costs
    # several microseconds), scalars as stride-0 broadcasts; either way no
    # field can be written through the batch.
    arrival = np.array([0.0, 0.5, 1.0])
    ost = np.array([1, 2, 3])
    full = RequestBatch(arrival=arrival, ost=ost, nbytes=np.full(3, MB))
    scalar = RequestBatch(arrival=0.0, ost=ost, nbytes=MB)
    for batch in (full, scalar):
        for name in ("arrival", "ost", "nbytes"):
            field = getattr(batch, name)
            assert field.shape == (3,), name
            assert not field.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 1
    np.testing.assert_array_equal(full.arrival, arrival)
    np.testing.assert_array_equal(scalar.arrival, [0.0, 0.0, 0.0])
    # The caller's arrays stay writable, and the views follow them.
    arrival[1] = 0.75
    np.testing.assert_array_equal(full.arrival, [0.0, 0.75, 1.0])
    # Lengths that neither match nor broadcast still raise.
    with pytest.raises(ValueError):
        RequestBatch(arrival=[0.0, 1.0], ost=[1, 2, 3], nbytes=MB)
    with pytest.raises(ValueError):
        RequestBatch(arrival=0.0, ost=[1, 2, 3], nbytes=[MB, MB])


@pytest.mark.parametrize(
    ("columns", "message"),
    [
        # Each used to fail with numpy's broadcast error, which names no field.
        (([0.0, 1.0, 2.0], [0, 1], 1.0), r"ost must be 1-D with 1 or 3 entries, got shape \(2,\)"),
        ((0.0, [0, 1, 2], [MB, MB]), r"nbytes must be 1-D with 1 or 3 entries, got shape \(2,\)"),
        (([0.0, 1.0], 0, [MB] * 3), r"arrival must be 1-D with 1 or 3 entries, got shape \(2,\)"),
        ((np.zeros((2, 3)), 0, MB), r"arrival must be 1-D .*, got shape \(2, 3\)"),
        ((0.0, [[0, 1, 2]], [MB] * 3), r"ost must be 1-D .*, got shape \(1, 3\)"),
        # A 2-D column with a NaN raised a bare IndexError.
        ((np.array([[0.0, 1.0, np.nan]]), 0, MB), r"arrival must be 1-D .*, got shape \(1, 3\)"),
    ],
    ids=["short-ost", "short-nbytes", "short-arrival", "2d-arrival", "2d-ost", "2d-nan-arrival"],
)
def test_batch_names_a_column_of_the_wrong_shape(columns, message):
    with pytest.raises(ValueError, match="RequestBatch " + message):
        RequestBatch(*columns)


def test_batch_rejects_non_finite_arrival():
    # A NaN arrival solved to a finite time on vectorized but raised
    # ZeroDivisionError on reference.
    with pytest.raises(ValueError, match=r"arrival\[1\] must be finite, got nan"):
        RequestBatch(arrival=[0.0, np.nan, 0.3], ost=0, nbytes=45 * MB)


def test_batch_rejects_negative_arrival():
    # The lane loops start the clock at 0 but integrated service from a
    # negative arrival: vectorized returned 60.75 s and 51.75 s here,
    # reference 1.35 s for both.
    with pytest.raises(ValueError, match=r"arrival\[0\] must be >= 0, got -10.0"):
        RequestBatch(arrival=[-10.0, -9.0], ost=0, nbytes=16 * MB)
    with pytest.raises(ValueError, match=r"arrival\[2\] must be >= 0, got -0.5"):
        RequestBatch(arrival=[0.0, 1.0, -0.5], ost=[0, 1, 2], nbytes=[16 * MB, 8 * MB, MB])
    assert len(RequestBatch(arrival=0.0, ost=0, nbytes=MB)) == 1  # time zero stays


def test_batch_rejects_negative_nbytes():
    # A negative size used to complete before its own arrival on every backend.
    with pytest.raises(ValueError, match=r"nbytes\[1\] must be finite and >= 0, got -1000000.0"):
        RequestBatch(arrival=[0.0, 0.5], ost=0, nbytes=[45 * MB, -1e6])
    assert len(RequestBatch(arrival=0.5, ost=0, nbytes=0.0)) == 1  # zero-size writes stay


def test_batch_rejects_infinite_nbytes():
    # An infinite size made the reference backend loop forever.
    with pytest.raises(ValueError, match=r"nbytes\[0\] must be finite and >= 0, got inf"):
        RequestBatch(arrival=[0.0, 0.5], ost=[0, 1], nbytes=np.inf)


@pytest.mark.parametrize(
    ("ost", "message"),
    [
        # Silently truncated to [0 1].
        ([0.5, 1.9], r"ost\[0\] must be a whole number, got 0.5"),
        # numpy's "cannot convert float NaN to integer", naming no field.
        ([1.0, np.nan], r"ost\[1\] must be a whole number, got nan"),
        # OverflowError.
        ([np.inf, 2.0], r"ost\[0\] must be a whole number, got inf"),
        # Cast to an arbitrary id.
        ([3.0, -1e19], r"ost\[1\] must be within the int64 range, got -1e\+19"),
        # numpy infers uint64 for this, which int64 wraps to -2**63.
        ([2**63], r"ost\[0\] must be within the int64 range, got 9223372036854775808"),
        (
            np.array([1, 2**64 - 1], dtype=np.uint64),
            r"ost\[1\] must be within the int64 range, got 18446744073709551615",
        ),
    ],
    ids=["fractional", "nan", "inf", "out-of-range", "python-int-past-int64", "uint64"],
)
def test_batch_rejects_ost_ids_that_are_not_whole_numbers(ost, message):
    with pytest.raises(ValueError, match="^RequestBatch " + message + "$"):
        RequestBatch(arrival=[0.0, 0.0], ost=ost, nbytes=1e6)


def test_batch_casts_whole_and_integer_ost_ids_exactly():
    for ost in ([3.0, 7.0], np.array([3, 7], dtype=np.int32), np.array([3, 7], dtype=np.uint8)):
        batch = RequestBatch(arrival=0.0, ost=ost, nbytes=MB)
        assert batch.ost.dtype == np.int64
        assert not batch.ost.flags.writeable
        np.testing.assert_array_equal(batch.ost, [3, 7])


def test_batch_length_follows_broadcasting():
    # An empty column beside scalars used to raise "must be 1-D with 1 or 1
    # entries"; numpy broadcasting makes it an empty batch.
    for columns in [
        (np.empty(0), np.empty(0, dtype=int), 1e6),
        (np.empty(0), 3, 1e6),
        (0.0, 3, np.empty(0)),
    ]:
        batch = RequestBatch(*columns)
        assert len(batch) == 0
        for field in (batch.arrival, batch.ost, batch.nbytes):
            assert field.shape == (0,)
        for backend in ("vectorized", "reference"):
            done = solve(KRAKEN, batch, large_writes=True, backend=backend)
            assert done.shape == (0,)
    assert len(RequestBatch(0.0, 3, 1e6)) == 1
    with pytest.raises(ValueError, match=r"arrival must be 1-D with 1 or 2 entries, got shape"):
        RequestBatch(np.empty(0), [1, 2], 1e6)


# -- lane grouping ---------------------------------------------------------


def _assert_lanes_are_lexsort(batch, ost_count):
    """``batch.lanes`` must be the ``(ost % ost_count, arrival)`` lexsort."""
    ost = batch.ost % ost_count
    order = np.lexsort((batch.arrival, ost))
    starts = np.flatnonzero(np.diff(ost[order], prepend=-1))
    lanes = batch.lanes(ost_count)
    np.testing.assert_array_equal(lanes.order, order)
    np.testing.assert_array_equal(lanes.arrival, batch.arrival[order])
    np.testing.assert_array_equal(lanes.nbytes, batch.nbytes[order])
    np.testing.assert_array_equal(lanes.starts, starts)
    np.testing.assert_array_equal(lanes.ends, np.append(starts[1:], len(batch)))
    np.testing.assert_array_equal(lanes.ost, ost[order][starts])


@pytest.mark.parametrize("ost_count", [255, 256, 257, 65535, 65536, 65537])
def test_lanes_order_equals_lexsort_of_ost_then_arrival(ost_count):
    # The grouping key widens from uint8 to uint16 past 256 OSTs and to
    # uint32 past 65536.  Ids on both sides of those boundaries, and ids
    # that wrap modulo the machine width, share a few deep lanes;
    # rounded arrivals tie.
    rng = np.random.default_rng(ost_count)
    ids = np.array([0, 1, 255, 256, 65534, 65535, 65536, 65537, ost_count - 1, 3 * ost_count])
    n = 2000
    balanced = RequestBatch(
        arrival=np.round(rng.uniform(0.0, 2.0, n), 1),
        ost=rng.choice(ids, n),
        nbytes=rng.uniform(MB, 64 * MB, n),
    )
    _assert_lanes_are_lexsort(balanced, ost_count)
    # One deep lane among many one-write lanes.
    ost = np.concatenate([np.arange(1, 301), np.full(n, ost_count - 1)])
    skewed = RequestBatch(arrival=np.round(rng.uniform(0.0, 2.0, ost.size), 1), ost=ost, nbytes=MB)
    _assert_lanes_are_lexsort(skewed, ost_count)


def test_lanes_of_empty_batch():
    lanes = RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0)).lanes(336)
    assert lanes.starts.size == 0
    for column in (lanes.order, lanes.arrival, lanes.nbytes, lanes.starts, lanes.ends, lanes.ost):
        assert column.size == 0


def test_lane_grouping_of_a_replicated_stack_holds_few_request_columns():
    """Lane grouping's traced peak above its inputs, in columns of n x 8 B.

    The stack is 30 file-per-process iterations of 2304 ranks on kraken
    over 30 x 336 virtual OSTs, with one shared size, as a replicated cell
    hands them to the engine.  Measured with numpy 2.4: 11.0 columns
    when every temporary lived to the end of the call and the shared
    size was gathered into a column of copies; 4.5 with each temporary
    freed once consumed and the size left one broadcast value.
    """
    plans = [
        FilePerProcess().plan_iteration(KRAKEN, 2304, 45 * MB, np.random.default_rng(seed))
        for seed in range(30)
    ]
    width = len(plans) * KRAKEN.ost_count
    stack = RequestBatch(
        arrival=np.concatenate([plan.batch.arrival for plan in plans]),
        ost=np.concatenate([plan.batch.ost + k * KRAKEN.ost_count for k, plan in enumerate(plans)]),
        nbytes=45 * MB,
    )
    # Under PYTHONTRACEMALLOC tracing is already on: measure from a reset
    # peak, and leave the caller's tracing running.
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lanes = stack.lanes(width)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / (8 * len(stack)) < 6.0
    assert lanes.nbytes.strides == (0,)
    _assert_lanes_are_lexsort(stack, width)


def test_simultaneous_solve_of_a_replicated_flush_holds_few_request_columns():
    """The simultaneous cumsum's traced peak above its inputs, in columns
    of n x 8 B, its output included.

    The stack is 90 dedicated-core iterations of 9216 ranks on kraken, 768
    node flushes each over 90 x 336 virtual OSTs with one shared size: E4's
    full-ladder top scale at 30 replications, its largest engine call.
    Measured with numpy 2.4: 16.1 columns when every temporary lived to
    the end of the call and the shared size was gathered into a column of
    copies; 10.1 with each temporary freed once consumed.
    """
    plans = [
        DedicatedCores().plan_iteration(KRAKEN, 9216, 45 * MB, np.random.default_rng(seed))
        for seed in range(90)
    ]
    ost = np.concatenate([plan.batch.ost + k * KRAKEN.ost_count for k, plan in enumerate(plans)])
    nbytes = np.broadcast_to(plans[0].batch.nbytes[:1], ost.shape)
    background = np.zeros(len(plans) * KRAKEN.ost_count)
    bw, slope = KRAKEN.ost_bandwidth, KRAKEN.large_write_seek_penalty
    # Under PYTHONTRACEMALLOC tracing is already on: measure from a reset
    # peak, and leave the caller's tracing running.
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        done = vectorized._solve_simultaneous(bw, slope, ost, 0.0, nbytes, background)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / (8 * ost.size) < 12.0
    assert done.shape == ost.shape


# -- the background contract ----------------------------------------------


def _both_shapes():
    """A staggered and a simultaneous batch: the two solver shapes."""
    return (
        RequestBatch(arrival=[0.0, 0.1, 0.2], ost=[0, 0, 1], nbytes=45 * MB),
        RequestBatch(arrival=0.0, ost=[0, 0, 1], nbytes=[45 * MB, 10 * MB, 45 * MB]),
    )


def _assert_background_rejected(background, message):
    for backend in ("vectorized", "reference"):
        for batch in _both_shapes():
            with pytest.raises(ValueError, match=message):
                solve(KRAKEN, batch, background=background, large_writes=False, backend=backend)


def test_solve_rejects_nan_background():
    # reference never returned on it; vectorized returned NaN.
    background = np.zeros(KRAKEN.ost_count)
    background[1] = np.nan
    _assert_background_rejected(background, r"background\[1\] must be finite and >= 0, got nan")


def test_solve_rejects_negative_background():
    # -5 streams completed writes arriving at 0.0 s at -2.0 s on both backends.
    background = np.full(KRAKEN.ost_count, -5.0)
    _assert_background_rejected(background, r"background\[0\] must be finite and >= 0, got -5.0")


def test_solve_rejects_infinite_background():
    # reference raised ZeroDivisionError; vectorized returned [inf, nan, inf].
    background = np.zeros(KRAKEN.ost_count)
    background[0] = np.inf
    _assert_background_rejected(background, r"background\[0\] must be finite and >= 0, got inf")


def test_solve_rejects_background_of_the_wrong_length():
    # A bare IndexError for the write on OST 7.
    batch = RequestBatch(arrival=[0.0, 0.5], ost=[7, 1], nbytes=MB)
    for backend in ("vectorized", "reference"):
        with pytest.raises(ValueError, match=r"background must hold one entry per OST"):
            solve(KRAKEN, batch, background=np.zeros(3), large_writes=False, backend=backend)


def test_solve_rejects_two_dimensional_background():
    # A bare TypeError.
    _assert_background_rejected(
        np.zeros((1, KRAKEN.ost_count)), r"background must hold one entry per OST"
    )


def test_background_contract_covers_every_entry_point():
    from repro.serve import SolveRequest

    batch = _both_shapes()[0]
    background = np.full(KRAKEN.ost_count, np.nan)
    match = r"background\[0\] must be finite"
    with pytest.raises(ValueError, match=match):
        solve_many(KRAKEN, [batch, batch], backgrounds=[background, None], large_writes=False)
    with pytest.raises(ValueError, match=match):
        SolveRequest(KRAKEN, batch, background=background)
    # Integer arrays and fractional loads stay accepted.
    quiet = solve(KRAKEN, batch, large_writes=False)
    zeros = np.zeros(KRAKEN.ost_count, dtype=np.int64)
    np.testing.assert_array_equal(solve(KRAKEN, batch, background=zeros, large_writes=False), quiet)
    solve(KRAKEN, batch, background=np.full(KRAKEN.ost_count, 0.5), large_writes=False)


def test_stacked_background_error_names_the_group_and_its_ost():
    # Used to report background[339], the index in the stacked array.
    batch = _both_shapes()[0]
    bad = np.zeros(KRAKEN.ost_count)
    bad[3] = np.nan
    with pytest.raises(
        ValueError, match=r"^backgrounds\[1\]: background\[3\] must be finite and >= 0, got nan$"
    ):
        solve_many(KRAKEN, [batch, batch], backgrounds=[None, bad], large_writes=True)
    with pytest.raises(
        ValueError, match=r"^backgrounds\[2\]: background must hold one entry per OST"
    ):
        solve_many(
            KRAKEN,
            [batch] * 3,
            backgrounds=[None, np.zeros(KRAKEN.ost_count), np.zeros(3)],
            large_writes=True,
        )


def test_stacked_background_error_past_the_first_engine_call_names_its_group(monkeypatch):
    # With one group per engine call, a bad background must still be named
    # by its group's index in the whole stack, not in its own call, and
    # must stop the stack before any backend runs.
    import repro.engine.batching as batching

    calls = []

    def spying_solve(machine, batch, **kwargs):
        calls.append(machine.ost_count // KRAKEN.ost_count)
        return solve(machine, batch, **kwargs)

    monkeypatch.setattr(batching, "_MAX_STACK_UNITS", 1)
    monkeypatch.setattr(batching, "solve", spying_solve)
    batch = _both_shapes()[0]
    quiet = np.zeros(KRAKEN.ost_count)
    bad = np.zeros(KRAKEN.ost_count)
    bad[3] = np.nan
    with pytest.raises(
        ValueError, match=r"^backgrounds\[2\]: background\[3\] must be finite and >= 0, got nan$"
    ):
        solve_many(KRAKEN, [batch] * 3, backgrounds=[None, quiet, bad], large_writes=True)
    with pytest.raises(
        ValueError, match=r"^backgrounds\[3\]: background must hold one entry per OST"
    ):
        batching.solve_groups(
            KRAKEN,
            [[batch, batch], [], [batch], [batch]],
            backgrounds=[quiet, None, None, np.zeros(3)],
            large_writes=True,
        )
    assert calls == []
    solve_many(KRAKEN, [batch] * 3, backgrounds=[None, quiet, None], large_writes=True)
    assert calls == [1, 1, 1]


_PAIR_RULE = r"a finite \(lo, hi\) pair with 0 <= lo <= hi"


@pytest.mark.parametrize(
    ("field", "value", "rule"),
    [
        ("burst_probability", 1.5, r"in \[0, 1\]"),
        ("burst_probability", -0.1, r"in \[0, 1\]"),
        ("burst_probability", float("nan"), r"in \[0, 1\]"),
        ("collective_burst_probability", 2.0, r"in \[0, 1\]"),
        ("background_streams", -1.0, "finite and >= 0"),
        ("background_streams", float("nan"), "finite and >= 0"),
        ("background_streams", float("inf"), "finite and >= 0"),
        ("collective_sigma", -0.45, "finite and >= 0"),
        ("collective_sigma", float("nan"), "finite and >= 0"),
        ("burst_streams", (12, 4), _PAIR_RULE),
        ("burst_streams", (-4, 12), _PAIR_RULE),
        ("burst_streams", (4.5, 12), "whole stream counts"),
        ("collective_burst_slowdown", (5.0, 2.0), _PAIR_RULE),
        ("collective_burst_slowdown", (2.0, float("inf")), _PAIR_RULE),
    ],
)
def test_interference_rejects_invalid_field(field, value, rule):
    # Accepted and sampled before: a probability of 1.5 bursted every OST, a
    # reversed slowdown drew from uniform(5, 2), and the rest failed in
    # numpy's samplers without naming the field.
    with pytest.raises(ValueError, match=rf"^Interference {field} must be {rule}, got"):
        Interference(**{field: value})


def test_interference_defaults_and_quiet_model_construct():
    assert Interference().burst_streams == (4, 12)
    assert not NO_INTERFERENCE.sample_background(KRAKEN, np.random.default_rng(0)).any()
    # Degenerate ranges stay accepted: lo == hi draws a constant.
    Interference(burst_streams=(4, 4), collective_burst_slowdown=(1.0, 1.0))


def test_two_writes_on_one_ost_are_solved_per_position():
    # solve() is positional: equal arrivals on one OST are two requests.
    batch = RequestBatch(0.0, [0, 0], [10 * MB, 20 * MB])
    _assert_backends_agree(batch, large_writes=True)


# -- golden-seed equivalence across workload shapes -----------------------


def _random_batch(rng, n, *, staggered, equal_sizes):
    arrival = np.sort(rng.uniform(0.0, 30.0, n)) if staggered else np.zeros(n)
    ost = rng.integers(0, KRAKEN.ost_count, n)
    nbytes = np.full(n, 45.0 * MB) if equal_sizes else rng.uniform(MB, 90 * MB, n)
    return RequestBatch(arrival, ost, nbytes)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 7, 200, 1500])
@pytest.mark.parametrize("staggered", [False, True])
@pytest.mark.parametrize("equal_sizes", [False, True])
def test_backends_agree_on_random_workloads(seed, n, staggered, equal_sizes):
    rng = np.random.default_rng([seed, n, staggered, equal_sizes])
    batch = _random_batch(rng, n, staggered=staggered, equal_sizes=equal_sizes)
    background = rng.poisson(1.2, KRAKEN.ost_count).astype(float)
    for bg in (None, background):
        for large in (False, True):
            _assert_backends_agree(batch, background=bg, large_writes=large)


def test_backends_agree_on_every_approach_iteration():
    """Medium workload end-to-end: each approach's visible & backend times."""
    for approach in APPROACHES:
        results = {}
        for backend in ("vectorized", "reference"):
            with use_backend(backend):
                rng = np.random.default_rng(42)
                results[backend] = approach.run_iteration(KRAKEN, 1152, 45 * MB, rng)
        vec, ref = results["vectorized"], results["reference"]
        np.testing.assert_allclose(vec.visible_times, ref.visible_times, rtol=1e-9, atol=1e-9)
        assert vec.backend_wall_s == pytest.approx(ref.backend_wall_s, rel=1e-9)
        assert vec.backend_busy_s == pytest.approx(ref.backend_busy_s, rel=1e-9)


def test_backends_agree_on_exascale_machine():
    rng = np.random.default_rng(17)
    batch = RequestBatch(
        arrival=rng.uniform(0.0, 60.0, 2048),
        ost=rng.integers(0, EXASCALE.ost_count, 2048),
        nbytes=rng.uniform(4 * MB, 90 * MB, 2048),
    )
    vec = solve(EXASCALE, batch, large_writes=True, backend="vectorized")
    ref = solve(EXASCALE, batch, large_writes=True, backend="reference")
    np.testing.assert_allclose(vec, ref, rtol=1e-9, atol=1e-6)


def test_backends_agree_on_deep_equal_size_lanes():
    # 400 equal-size staggered writes on 5 OSTs: ~80-deep FIFO lanes.
    rng = np.random.default_rng(11)
    size = float(rng.uniform(MB, 64 * MB))
    batch = RequestBatch(
        arrival=rng.uniform(0.0, 30.0, 400), ost=rng.integers(0, 5, 400), nbytes=size
    )
    _assert_backends_agree(batch, large_writes=True)


# -- pinned headline values (golden seed 0, default ladder) ----------------


def test_e1_headline_pinned():
    table = run_weak_scaling(scales=[576, 1152, 2304], iterations=2)
    top = {row["approach"]: row for row in table.where(ranks=2304)}
    # Orderings the paper's figure hinges on.
    assert (
        top["damaris"]["io_phase_mean_s"]
        < top["file-per-process"]["io_phase_mean_s"]
        < top["collective"]["io_phase_mean_s"]
    )
    assert (
        top["damaris"]["speedup_vs_collective"]
        > top["file-per-process"]["speedup_vs_collective"]
        > 1.0
    )
    # Pinned values guarding the refactor (golden seed 0).
    assert top["damaris"]["io_phase_mean_s"] == pytest.approx(0.081117, rel=1e-3)
    assert top["damaris"]["speedup_vs_collective"] == pytest.approx(1.682624, rel=1e-3)
    assert top["collective"]["io_phase_mean_s"] == pytest.approx(204.923742, rel=1e-3)


def test_e3_headline_pinned():
    table = run_throughput(ranks=2304, iterations=2)
    by_name = {row["approach"]: row["throughput_gb_s"] for row in table}
    assert by_name["collective"] < by_name["file-per-process"] < by_name["damaris"]
    assert by_name["collective"] == pytest.approx(0.548336, rel=1e-3)
    assert by_name["file-per-process"] == pytest.approx(1.675572, rel=1e-3)
    assert by_name["damaris"] == pytest.approx(16.875, rel=1e-3)


def test_experiment_tables_identical_across_backends():
    kwargs = {"ranks": 1152, "iterations": 2, "seed": 5}
    with use_backend("vectorized"):
        vec = run_throughput(**kwargs)
    with use_backend("reference"):
        ref = run_throughput(**kwargs)
    for vrow, rrow in zip(vec, ref, strict=True):
        for key in vrow.keys():
            assert vrow[key] == pytest.approx(rrow[key], rel=1e-9), key


def test_storm_threshold_boundary_pinned():
    """A second write arriving exactly as the first completes, and one
    arriving just after, solve bit-identically to the reference.

    Two equal-size requests per lane, gap g: single-stream service at
    the second arrival is exactly bw * g.  Built with exact float
    arithmetic (bw = 2**30, size = 2**20, power-of-two gaps), so
    g = 2**-10 lands the second arrival exactly on the first write's
    completion and g = 2**-9 lands it after that, with no rounding; the
    batch of 1024 lanes runs the lockstep sweep.
    """
    size = float(2**20)
    machine = KRAKEN.with_overrides(ost_count=1024, ost_bandwidth=float(2**30))
    lanes = np.arange(1024, dtype=np.int64)
    for gap in (2.0**-10, 2.0**-9):
        batch = RequestBatch(
            arrival=np.concatenate([np.zeros(1024), np.full(1024, gap)]),
            ost=np.concatenate([lanes, lanes]),
            nbytes=size,
        )
        vec = solve(machine, batch, large_writes=False, backend="vectorized")
        ref = solve(machine, batch, large_writes=False, backend="reference")
        np.testing.assert_array_equal(vec, ref, err_msg=f"gap {gap}")
