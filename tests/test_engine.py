"""Cross-validation of the engine backends plus pinned headline values.

The vectorized backend must reproduce the reference backend's completion
times on every workload shape the I/O models generate (simultaneous
flushes, staggered create storms, mixed sizes, background interference),
and the experiment tables built on top must keep the paper's headline
orderings bit-for-bit across the refactor (golden seed 0).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EXASCALE,
    KRAKEN,
    RequestBatch,
    WriteRequest,
    backend_names,
    default_backend,
    simulate_writes,
    solve,
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


def test_empty_batch():
    for backend in ("vectorized", "reference"):
        done = solve(KRAKEN, RequestBatch.from_requests([]), large_writes=True, backend=backend)
        assert done.size == 0


# -- RequestBatch container ------------------------------------------------


def test_empty_batch_round_trips_through_requests():
    batch = RequestBatch.from_requests([])
    assert len(batch) == 0
    assert batch.to_requests() == []
    again = RequestBatch.from_requests(batch.to_requests())
    assert len(again) == 0
    assert again.tag.size == 0


def test_batch_round_trips_through_requests():
    reqs = [
        WriteRequest(arrival=0.0, ost=3, nbytes=45 * MB, tag=11),
        WriteRequest(arrival=1.5, ost=7, nbytes=90 * MB, tag=7),
    ]
    assert RequestBatch.from_requests(reqs).to_requests() == reqs


def test_batch_broadcasts_scalars():
    batch = RequestBatch(arrival=0.0, ost=[1, 2, 3], nbytes=45 * MB)
    assert len(batch) == 3
    np.testing.assert_array_equal(batch.arrival, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(batch.nbytes, [45 * MB] * 3)
    # Default tags are the batch positions.
    np.testing.assert_array_equal(batch.tag, [0, 1, 2])


def test_batch_rejects_mismatched_tags():
    with pytest.raises(ValueError, match="tag length"):
        RequestBatch(arrival=0.0, ost=[1, 2, 3], nbytes=MB, tag=[0, 1])


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


def test_duplicate_tags_are_solved_per_position():
    # solve() is positional; caller tags need not be unique.
    batch = RequestBatch(0.0, [0, 0], [10 * MB, 20 * MB], tag=[5, 5])
    _assert_backends_agree(batch, large_writes=True)


def test_simulate_writes_dict_wrapper_matches_batch_order():
    reqs = [
        WriteRequest(arrival=0.0, ost=3, nbytes=45 * MB, tag=11),
        WriteRequest(arrival=1.0, ost=3, nbytes=45 * MB, tag=7),
    ]
    done = simulate_writes(KRAKEN, reqs, large_writes=True)
    assert set(done) == {11, 7}
    assert done[11] < done[7]


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
    """The wide-FIFO validity check lives in one named constant and the
    boundary case sits exactly on it.

    The storm regime holds while the service accumulated by the last
    arrival does not exceed ``STORM_THRESHOLD_WRITES`` writes; the bound
    is inclusive.  Built with exact float arithmetic (power-of-two
    bandwidth, size, and gap) so ``service_last == size`` lands on the
    boundary with no rounding, and both sides of it must still match
    the reference solver bit-for-bit via the per-lane re-solve.
    """
    from repro.engine.vectorized import (
        STORM_THRESHOLD_WRITES,
        WIDE_MIN_GROUPS,
        _storm_regime,
    )

    # The bound is definitionally exact: one write of service.
    assert STORM_THRESHOLD_WRITES == 1.0  # repro: allow[DET004]
    size = float(2**20)
    # Inclusive bound: exactly one write of service is still storm regime.
    assert bool(_storm_regime(np.array([size]), size))
    assert not bool(_storm_regime(np.array([np.nextafter(size, np.inf)]), size))

    # Two equal-size requests per lane, gap g: single-stream service at
    # the second arrival is exactly bw * g.  bw = 2**30, size = 2**20:
    # g = 2**-10 puts every lane exactly ON the bound (storm path) and
    # g = 2**-9 pushes every lane past it (lockstep fallback) — both
    # must agree with the reference event loop exactly.
    machine = KRAKEN.with_overrides(ost_count=WIDE_MIN_GROUPS, ost_bandwidth=float(2**30))
    lanes = np.arange(WIDE_MIN_GROUPS, dtype=np.int64)
    for gap in (2.0**-10, 2.0**-9):
        batch = RequestBatch(
            arrival=np.concatenate([np.zeros(WIDE_MIN_GROUPS), np.full(WIDE_MIN_GROUPS, gap)]),
            ost=np.concatenate([lanes, lanes]),
            nbytes=size,
        )
        vec = solve(machine, batch, large_writes=False, backend="vectorized")
        ref = solve(machine, batch, large_writes=False, backend="reference")
        np.testing.assert_array_equal(vec, ref, err_msg=f"gap {gap}")
