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
)
from repro.experiments import run_throughput, run_weak_scaling
from repro.io_models import APPROACHES
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
    from repro.serve import SolveRequest, SolveService

    batch = _both_shapes()[0]
    background = np.full(KRAKEN.ost_count, np.nan)
    match = r"background\[0\] must be finite"
    with pytest.raises(ValueError, match=match):
        solve_many(KRAKEN, [batch, batch], backgrounds=[background, None], large_writes=False)
    service = SolveService()
    service.submit(SolveRequest(KRAKEN, batch, background=background))
    with pytest.raises(ValueError, match=match):
        service.flush()
    # Integer arrays and fractional loads stay accepted.
    quiet = solve(KRAKEN, batch, large_writes=False)
    zeros = np.zeros(KRAKEN.ost_count, dtype=np.int64)
    np.testing.assert_array_equal(solve(KRAKEN, batch, background=zeros, large_writes=False), quiet)
    solve(KRAKEN, batch, background=np.full(KRAKEN.ost_count, 0.5), large_writes=False)


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
