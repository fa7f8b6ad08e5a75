"""Randomized cross-validation harnesses.

* **Engine equivalence fuzz** — ~100 random request batches spanning
  every workload shape the models can produce (simultaneous and
  staggered arrivals, equal and mixed sizes, deep single-OST queues,
  background load, merged multi-app batches, wide equal-size batches over
  1024+ OSTs like stacked replications) must agree with the reference backend
  to 1e-9 — for *every* backend in the live registry, so a newly
  registered solver is cross-validated automatically.
* **Lockstep kernel fuzz** — staggered batches wide enough for the
  lockstep kernels (equal and mixed sizes, lane depth 1 to 60, exact
  arrival ties, duplicated rows, zero-size writes, integer and
  fractional background, both write classes) must be bit-identical to
  a scalar heap loop run lane by lane, and agree with the reference.
* **Narrow heap-loop fuzz** — the same shapes below the lockstep width,
  deep lanes included, take the vectorized per-lane heap loop and its
  per-batch rate table; they must be bit-identical to the same oracle.
  The oracle groups lanes and computes every rate on its own, so it
  shares no code with the kernels it checks.
* **Simultaneous cumsum fuzz** — equal-arrival batches (shared and mixed
  sizes, size ties, ``-0.0`` beside ``0.0``, zero sizes, fractional
  background) take the padded-matrix cumsum and must be bit-identical to
  the same oracle, signed zeros included.
* **Trace record/replay round trip** — a random multi-application
  workload is recorded, saved, reloaded, and replayed; the replay must
  reproduce the recorded per-app completion times exactly on both
  backends.
"""

import heapq

import numpy as np
import pytest

from repro.engine import (
    KRAKEN,
    PENALTY_CAP,
    Machine,
    RequestBatch,
    backend_names,
    merge_batches,
    solve,
    use_backend,
    vectorized,
)
from repro.engine.vectorized import LOCKSTEP_MIN_WIDTH
from repro.util import MB
from repro.workloads import Workload, replay_trace, run_composition
from repro.workloads.trace import Trace

FUZZ_CASES = 100


def _random_batch(rng: np.random.Generator) -> tuple[RequestBatch, np.ndarray | None, bool]:
    """One random workload: batch, optional background, write class."""
    n = int(rng.integers(1, 400))
    simultaneous = rng.random() < 0.3
    if simultaneous:
        arrival = np.full(n, float(rng.uniform(0.0, 20.0)))
    else:
        arrival = rng.uniform(0.0, float(rng.choice([2.0, 30.0, 500.0])), n)
    equal_sizes = rng.random() < 0.5
    nbytes = (
        np.full(n, float(rng.uniform(MB, 90 * MB)))
        if equal_sizes
        else rng.uniform(0.1 * MB, 128 * MB, n)
    )
    # Sometimes spray across few OSTs (deep queues), sometimes many.
    ost_span = int(rng.choice([3, 48, KRAKEN.ost_count]))
    ost = rng.integers(0, ost_span, n)
    # A draw that once made per-request tags; kept so every case stays the same.
    rng.integers(0, max(2, n // 2), n)
    batch = RequestBatch(arrival=arrival, ost=ost, nbytes=nbytes)
    background = (
        rng.poisson(1.5, KRAKEN.ost_count).astype(float) if rng.random() < 0.5 else None
    )
    return batch, background, bool(rng.random() < 0.5)


def test_fuzz_backends_agree_on_random_batches():
    # Draw the candidate set from the live registry: every registered
    # backend (vectorized, future ones) fuzzes against the
    # reference ground truth on the same ~100 batches.
    candidates = [name for name in backend_names() if name != "reference"]
    assert candidates, "registry must hold at least one non-reference backend"
    rng = np.random.default_rng(20260730)
    for case in range(FUZZ_CASES):
        batch, background, large = _random_batch(rng)
        ref = solve(KRAKEN, batch, background=background, large_writes=large, backend="reference")
        for name in candidates:
            got = solve(KRAKEN, batch, background=background, large_writes=large, backend=name)
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-6, err_msg=f"fuzz case {case} ({name}) diverged"
            )


def test_fuzz_backends_agree_on_merged_batches():
    # Multi-application composition shape: several batches merged over
    # the shared OSTs, solved as one contended batch.
    rng = np.random.default_rng(7)
    for case in range(20):
        parts = [_random_batch(rng)[0] for _ in range(int(rng.integers(2, 5)))]
        merged, _ = merge_batches(parts)
        vec = solve(KRAKEN, merged, background=None, large_writes=False, backend="vectorized")
        ref = solve(KRAKEN, merged, background=None, large_writes=False, backend="reference")
        np.testing.assert_allclose(
            vec, ref, rtol=1e-9, atol=1e-6, err_msg=f"merged fuzz case {case} diverged"
        )


def test_fuzz_wide_fast_path_agrees_with_reference():
    # Equal-size staggered batches over thousands of OSTs, the shape of
    # stacked replications, with short and long arrival spans: bit for
    # bit the per-lane heap loop, and within 1e-9 of the reference.
    rng = np.random.default_rng(99)
    machine = KRAKEN.with_overrides(ost_count=4 * 1024)
    for case in range(10):
        n = int(rng.integers(1024, 4 * 1024))
        span = float(rng.choice([5.0, 2000.0]))
        batch = RequestBatch(
            arrival=rng.uniform(0.0, span, n),
            ost=rng.integers(0, machine.ost_count, n),
            nbytes=float(rng.uniform(MB, 64 * MB)),
        )
        background = rng.poisson(1.2, machine.ost_count).astype(float)
        vec = solve(machine, batch, background=background, large_writes=False)
        np.testing.assert_array_equal(
            vec, _heap_loop(machine, batch, background, False), err_msg=f"wide fuzz case {case}"
        )
        ref = solve(machine, batch, background=background, large_writes=False, backend="reference")
        np.testing.assert_allclose(
            vec, ref, rtol=1e-9, atol=1e-6, err_msg=f"wide fuzz case {case} diverged"
        )


LOCKSTEP_FUZZ_CASES = 150


def _lockstep_batch(
    rng: np.random.Generator, depth: int
) -> tuple[RequestBatch, np.ndarray | None, bool]:
    """A staggered batch of max lane depth ``depth``, averaging at least
    LOCKSTEP_MIN_WIDTH requests per pass."""
    lanes = int(rng.integers(LOCKSTEP_MIN_WIDTH, 2 * LOCKSTEP_MIN_WIDTH))
    counts = rng.integers(1, depth + 1, lanes)
    counts[:LOCKSTEP_MIN_WIDTH] = depth  # n >= LOCKSTEP_MIN_WIDTH * depth
    ost = np.repeat(rng.permutation(KRAKEN.ost_count)[:lanes], counts)
    return _staggered_batch(rng, ost)


def _staggered_batch(
    rng: np.random.Generator, ost: np.ndarray
) -> tuple[RequestBatch, np.ndarray | None, bool]:
    """A staggered batch on the lane-grouped OST ids ``ost``, shuffled."""
    n = ost.size
    # Rounded arrivals tie exactly, within and across lanes.
    span = float(rng.choice([5.0, 60.0]))
    arrival = np.round(rng.uniform(0.0, span, n), int(rng.integers(0, 3)))
    if rng.random() < 0.5:
        nbytes = np.full(n, float(rng.choice([0.0, rng.uniform(MB, 90 * MB)])))
    else:
        nbytes = rng.uniform(0.1 * MB, 128 * MB, n)
        nbytes[rng.random(n) < 0.1] = 0.0
    # Duplicated (arrival, OST, size) rows: their thresholds tie and the
    # batch position decides which completes first.
    dup = np.flatnonzero((ost[1:] == ost[:-1]) & (rng.random(n - 1) < 0.2))
    arrival[dup + 1] = arrival[dup]
    nbytes[dup + 1] = nbytes[dup]
    shuffle = rng.permutation(n)
    batch = RequestBatch(arrival=arrival[shuffle], ost=ost[shuffle], nbytes=nbytes[shuffle])
    background = None
    if rng.random() < 0.7:
        background = rng.poisson(1.5, KRAKEN.ost_count).astype(float)
        if rng.random() < 0.5:
            background *= rng.uniform(0.0, 1.0, KRAKEN.ost_count)
    return batch, background, bool(rng.random() < 0.5)


def _heap_loop(
    machine: Machine, batch: RequestBatch, background: np.ndarray | None, large: bool
) -> np.ndarray:
    """The bit-identity oracle: a scalar min-heap loop, one OST at a time.

    It groups the lanes itself and recomputes the per-stream rate at
    every event, from ``len(heap) + background`` and the capped seek
    penalty, so it shares no code with the engine's kernels.
    """
    ost = batch.ost % machine.ost_count
    order = np.lexsort((batch.arrival, ost))
    bg = np.zeros(machine.ost_count) if background is None else background
    slope = machine.large_write_seek_penalty if large else machine.small_write_seek_penalty
    bw = machine.ost_bandwidth
    out = np.empty(len(batch))
    for lane in np.split(order, np.flatnonzero(np.diff(ost[order])) + 1):
        background_streams = float(bg[ost[lane[0]]])
        arrivals, sizes = batch.arrival[lane].tolist(), batch.nbytes[lane].tolist()
        positions = lane.tolist()
        heap: list[tuple[float, int]] = []
        t = service = 0.0
        i = 0
        while i < len(positions) or heap:
            if not heap:
                if arrivals[i] > t:
                    t = arrivals[i]
                heapq.heappush(heap, (service + sizes[i], positions[i]))
                i += 1
                continue
            streams = len(heap) + background_streams
            penalty = 1.0 if streams <= 1.0 else min(1.0 + slope * (streams - 1.0), PENALTY_CAP)
            rate = bw / (streams * penalty)
            threshold, pos = heap[0]
            t_complete = t + (threshold - service) / rate
            if i < len(positions) and arrivals[i] <= t_complete:
                service += rate * (arrivals[i] - t)
                t = arrivals[i]
                heapq.heappush(heap, (service + sizes[i], positions[i]))
                i += 1
            else:
                service, t = threshold, t_complete
                heapq.heappop(heap)
                out[pos] = t
    return out


def test_fuzz_lockstep_kernels_bit_identical_to_heap_loop():
    rng = np.random.default_rng(20261017)
    # Both ends of the depth range, then log-uniform depths in [1, 60]:
    # deep lanes are covered and the O(k^2) reference stays affordable.
    depths = [1, 60, *np.exp(rng.uniform(0.0, np.log(61.0), LOCKSTEP_FUZZ_CASES - 2))]
    for case, depth in enumerate(depths):
        batch, background, large = _lockstep_batch(rng, int(depth))
        lanes = batch.lanes(KRAKEN.ost_count)
        assert len(batch) >= LOCKSTEP_MIN_WIDTH * int((lanes.ends - lanes.starts).max())
        got = solve(KRAKEN, batch, background=background, large_writes=large)
        np.testing.assert_array_equal(
            got, _heap_loop(KRAKEN, batch, background, large), err_msg=f"lockstep case {case}"
        )
        ref = solve(KRAKEN, batch, background=background, large_writes=large, backend="reference")
        np.testing.assert_allclose(
            got, ref, rtol=1e-9, atol=1e-6, err_msg=f"lockstep case {case} vs reference"
        )


NARROW_FUZZ_CASES = 100


def _narrow_batch(
    rng: np.random.Generator, depth: int
) -> tuple[RequestBatch, np.ndarray | None, bool]:
    """A staggered batch of max lane depth ``depth`` on fewer than
    LOCKSTEP_MIN_WIDTH lanes, so below the lockstep width."""
    lanes = int(rng.integers(1, LOCKSTEP_MIN_WIDTH))
    counts = rng.integers(1, depth + 1, lanes)
    counts[0] = depth
    ost = np.repeat(rng.permutation(KRAKEN.ost_count)[:lanes], counts)
    return _staggered_batch(rng, ost)


# The rate table's never-read zero-stream entry must not divide by zero.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzz_narrow_heap_loop_bit_identical_to_oracle():
    rng = np.random.default_rng(20261018)
    # Both ends of the depth range, then log-uniform depths in [1, 120].
    depths = [1, 60, 120, *np.exp(rng.uniform(0.0, np.log(121.0), NARROW_FUZZ_CASES - 3))]
    for case, depth in enumerate(depths):
        batch, background, large = _narrow_batch(rng, int(depth))
        lanes = batch.lanes(KRAKEN.ost_count)
        assert len(batch) < LOCKSTEP_MIN_WIDTH * int((lanes.ends - lanes.starts).max())
        got = solve(KRAKEN, batch, background=background, large_writes=large)
        np.testing.assert_array_equal(
            got, _heap_loop(KRAKEN, batch, background, large), err_msg=f"narrow case {case}"
        )
        ref = solve(KRAKEN, batch, background=background, large_writes=large, backend="reference")
        np.testing.assert_allclose(
            got, ref, rtol=1e-9, atol=1e-6, err_msg=f"narrow case {case} vs reference"
        )


def _skewed_batch(rng: np.random.Generator, equal_sizes: bool) -> RequestBatch:
    """300 one-write lanes plus one 5000-deep lane: narrow, however many lanes."""
    ost = np.concatenate([np.arange(1, 301), np.zeros(5000, dtype=np.int64)])
    nbytes = np.full(ost.size, 16 * MB) if equal_sizes else rng.uniform(4 * MB, 64 * MB, ost.size)
    return RequestBatch(arrival=rng.uniform(0.0, 60.0, ost.size), ost=ost, nbytes=nbytes)


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
@pytest.mark.parametrize("background", ["none", "integer", "fractional"])
@pytest.mark.parametrize("equal_sizes", [True, False], ids=["equal", "mixed"])
def test_skewed_narrow_batch_bit_identical_to_oracle(equal_sizes, background, large):
    rng = np.random.default_rng(3)
    batch = _skewed_batch(rng, equal_sizes)
    bg = None
    if background != "none":
        bg = rng.poisson(1.5, KRAKEN.ost_count).astype(float)
        if background == "fractional":
            bg *= rng.uniform(0.0, 1.0, KRAKEN.ost_count)
    got = solve(KRAKEN, batch, background=bg, large_writes=large)
    np.testing.assert_array_equal(got, _heap_loop(KRAKEN, batch, bg, large))


def test_skewed_narrow_batch_agrees_with_reference():
    # One reference solve: its 5000-deep lane costs seconds.
    rng = np.random.default_rng(4)
    batch = _skewed_batch(rng, equal_sizes=False)
    bg = rng.poisson(1.5, KRAKEN.ost_count) * rng.uniform(0.0, 1.0, KRAKEN.ost_count)
    got = solve(KRAKEN, batch, background=bg, large_writes=False)
    ref = solve(KRAKEN, batch, background=bg, large_writes=False, backend="reference")
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-6)


SIMULTANEOUS_FUZZ_CASES = 100


def _simultaneous_batch(rng: np.random.Generator) -> tuple[RequestBatch, np.ndarray | None, bool]:
    """An equal-arrival batch over few or many OSTs (deep or shallow lanes)."""
    n = int(rng.integers(1, 500))
    ost = rng.integers(0, int(rng.choice([1, 3, 48, KRAKEN.ost_count])), n)
    arrival = float(rng.choice([0.0, rng.uniform(0.0, 50.0)]))
    if rng.random() < 0.3:
        # One shared size, as every approach writes per iteration.
        nbytes = np.broadcast_to(float(rng.choice([0.0, -0.0, rng.uniform(MB, 90 * MB)])), n)
    else:
        # Few distinct sizes, so sizes tie within a lane; zeros of both signs.
        palette = [0.0, -0.0, *rng.uniform(0.1 * MB, 128 * MB, 4)]
        nbytes = np.array(palette)[rng.integers(0, len(palette), n)]
    background = None
    if rng.random() < 0.7:
        background = rng.poisson(1.5, KRAKEN.ost_count) * rng.uniform(0.0, 1.0, KRAKEN.ost_count)
    batch = RequestBatch(arrival=arrival, ost=ost, nbytes=nbytes)
    return batch, background, bool(rng.random() < 0.5)


def test_fuzz_simultaneous_cumsum_bit_identical_to_heap_loop():
    rng = np.random.default_rng(20261019)
    kernel = vectorized._solve_simultaneous
    for case in range(SIMULTANEOUS_FUZZ_CASES):
        batch, background, large = _simultaneous_batch(rng)
        slope = KRAKEN.large_write_seek_penalty if large else KRAKEN.small_write_seek_penalty
        bg = np.zeros(KRAKEN.ost_count) if background is None else background
        got = kernel(KRAKEN.ost_bandwidth, slope, batch.ost, batch.arrival[0], batch.nbytes, bg)
        want = _heap_loop(KRAKEN, batch, background, large)
        # Bit patterns, so a -0.0 against a 0.0 fails too.
        np.testing.assert_array_equal(
            got.view(np.int64), want.view(np.int64), err_msg=f"simultaneous case {case}"
        )
        # solve dispatches an equal-arrival batch to this kernel.
        np.testing.assert_array_equal(
            solve(KRAKEN, batch, background=background, large_writes=large), got
        )


def _kernels_entered(monkeypatch, batch: RequestBatch) -> list[str]:
    """Which lockstep kernels a staggered solve of ``batch`` calls."""
    entered: list[str] = []
    for name in ("_solve_lockstep_fifo", "_solve_lockstep_heap"):
        kernel = getattr(vectorized, name)

        def spy(*args, _name=name, _kernel=kernel):
            entered.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(vectorized, name, spy)
    solve(KRAKEN, batch, large_writes=False)
    monkeypatch.undo()
    return entered


@pytest.mark.parametrize("equal_sizes", [True, False])
def test_lockstep_dispatch_follows_width_not_lane_count(monkeypatch, equal_sizes):
    rng = np.random.default_rng(5)

    def sizes(n: int) -> np.ndarray:
        return np.full(n, 16 * MB) if equal_sizes else rng.uniform(4 * MB, 64 * MB, n)

    # 300 one-write lanes plus one 5000-deep lane: many lanes, but each
    # lockstep pass would advance only a handful of requests.
    ost = np.concatenate([np.arange(1, 301), np.zeros(5000, dtype=np.int64)])
    skewed = RequestBatch(arrival=rng.uniform(0.0, 60.0, ost.size), ost=ost, nbytes=sizes(ost.size))
    assert _kernels_entered(monkeypatch, skewed) == []

    # E9's shape: 2304 ranks spread over Kraken's 336 OSTs, depth 7.
    ost = rng.permutation(2304) % KRAKEN.ost_count
    storm = RequestBatch(arrival=rng.uniform(0.0, 6.0, ost.size), ost=ost, nbytes=sizes(ost.size))
    kernel = "_solve_lockstep_fifo" if equal_sizes else "_solve_lockstep_heap"
    assert _kernels_entered(monkeypatch, storm) == [kernel]


def _random_workloads(rng: np.random.Generator) -> list[Workload]:
    arrivals = ("periodic", "jittered", "poisson", "burst")
    approaches = ("file-per-process", "collective", "damaris")
    count = int(rng.integers(1, 4))
    return [
        Workload(
            app=f"app{i}",
            ranks=int(rng.choice([48, 96, 192])),
            data_per_rank=float(rng.uniform(4 * MB, 45 * MB)),
            arrival=str(rng.choice(arrivals)),
            approach=str(rng.choice(approaches)),
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("case_seed", range(8))
def test_trace_record_replay_round_trip(case_seed, tmp_path):
    """Record a random workload, save, load, replay: identical completions."""
    rng = np.random.default_rng([41, case_seed])
    workloads = _random_workloads(rng)
    outcome = run_composition(
        KRAKEN,
        workloads,
        iterations=int(rng.integers(1, 4)),
        period=float(rng.uniform(10.0, 120.0)),
        seed=case_seed,
        trace_path=tmp_path / "trace.jsonl",
    )
    loaded = Trace.load(tmp_path / "trace.jsonl")
    assert loaded.apps == outcome.apps
    for backend in ("vectorized", "reference"):
        with use_backend(backend):
            replayed = replay_trace(loaded)
        for app in outcome.apps:
            assert len(replayed[app]) == len(outcome.completions[app])
            for recorded, again in zip(outcome.completions[app], replayed[app], strict=True):
                if backend == "vectorized":
                    # Same backend, same inputs: bit-identical.
                    np.testing.assert_array_equal(again, recorded)
                else:
                    np.testing.assert_allclose(again, recorded, rtol=1e-9, atol=1e-6)
