"""Unit tests for the repro.stats subsystem.

Covers the bootstrap CI, the replication seeding scheme, the batched
replication driver's exact equivalence with serial per-replication
solving (and with the reference backend as ground truth), and the
table-reduction layer.
"""

import tracemalloc

import numpy as np
import pytest

from repro.engine import (
    KRAKEN,
    RequestBatch,
    merge_batches,
    solve,
    solve_groups,
    solve_many,
    split_by_segment,
    use_backend,
)
from repro.experiments._driver import DEFAULT_INTERFERENCE, cell_rng
from repro.io_models import resolve_approach
from repro.stats import (
    bootstrap_ci,
    reduce_replications,
    replication_rng,
    replication_seed,
    run_replications,
)
from repro.stats.replication import solve_prepared
from repro.table import Table
from repro.util import MB

_CELL = dict(machine=KRAKEN, ranks=288, iterations=3, data_per_rank=45 * MB, seed=4)


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.visible_times, b.visible_times)
        and a.backend_wall_s == b.backend_wall_s
        and a.backend_busy_s == b.backend_busy_s
        and a.bytes_written == b.bytes_written
        and a.files_created == b.files_created
    )


# -- replication seeding ---------------------------------------------------


def test_replication_zero_is_the_base_seed():
    assert replication_seed(7, 0) == 7


def test_replication_seeds_are_distinct_and_stable():
    seeds = [replication_seed(0, r) for r in range(64)]
    assert len(set(seeds)) == 64
    assert seeds == [replication_seed(0, r) for r in range(64)]
    with pytest.raises(ValueError):
        replication_seed(0, -1)


def test_replication_rng_zero_matches_cell_rng():
    a = replication_rng(3, 576, "damaris", 0).random(4)
    b = cell_rng(3, 576, "damaris").random(4)
    np.testing.assert_array_equal(a, b)
    c = replication_rng(3, 576, "damaris", 1).random(4)
    assert not np.array_equal(a, c)


# -- the replication driver ------------------------------------------------


@pytest.mark.parametrize(
    "approach", ["file-per-process", "collective", "damaris", "dedicated-nodes"]
)
def test_batched_replications_bit_identical_to_serial(approach):
    serial = run_replications(
        approach, replications=4, interference=DEFAULT_INTERFERENCE, batched=False, **_CELL
    )
    batched = run_replications(
        approach, replications=4, interference=DEFAULT_INTERFERENCE, batched=True, **_CELL
    )
    assert len(serial) == len(batched) == 4
    for rep_serial, rep_batched in zip(serial, batched, strict=True):
        assert len(rep_serial) == len(rep_batched) == _CELL["iterations"]
        for a, b in zip(rep_serial, rep_batched, strict=True):
            assert _results_equal(a, b)


def test_replication_zero_is_the_historical_stream():
    approach = resolve_approach("damaris")
    rng = cell_rng(_CELL["seed"], _CELL["ranks"], approach)
    historical = [
        approach.run_iteration(
            KRAKEN, _CELL["ranks"], _CELL["data_per_rank"], rng, DEFAULT_INTERFERENCE
        )
        for _ in range(_CELL["iterations"])
    ]
    replicated = run_replications(
        approach, replications=2, interference=DEFAULT_INTERFERENCE, **_CELL
    )
    for a, b in zip(historical, replicated[0], strict=True):
        assert _results_equal(a, b)


def test_replications_are_independent_of_count():
    # Replication r's results depend only on (seed, r), never on how many
    # replications run alongside — the property that makes stacking free.
    few = run_replications("file-per-process", replications=2, **_CELL)
    many = run_replications("file-per-process", replications=5, **_CELL)
    for rep_few, rep_many in zip(few, many, strict=False):
        for a, b in zip(rep_few, rep_many, strict=False):
            assert _results_equal(a, b)


def test_run_replications_validates_inputs():
    with pytest.raises(ValueError):
        run_replications("damaris", replications=0, **_CELL)
    with pytest.raises(ValueError):
        run_replications(
            "damaris", KRAKEN, 288, 0, 45 * MB, 0, 2
        )


def _spy_engine_calls(monkeypatch):
    """Every engine call under ``solve_groups``, as (members, requests)."""
    import repro.engine.batching as batching

    calls = []

    def spying_solve(machine, batch, **kwargs):
        calls.append((machine.ost_count // KRAKEN.ost_count, len(batch)))
        return solve(machine, batch, **kwargs)

    monkeypatch.setattr(batching, "solve", spying_solve)
    return calls


def test_streamed_driver_makes_the_engine_calls_of_one_solve_many(monkeypatch):
    """A 9216-rank file-per-process cell at 30 replications streams its 60
    plans through the engine in the calls one ``solve_many`` over all 60
    makes, and draws each call's plans only after the previous call."""
    import repro.stats.replication as replication

    calls = _spy_engine_calls(monkeypatch)
    events = []
    approach = resolve_approach("file-per-process")
    prepare = approach.prepare_iteration
    solve_chunk = replication.solve_many

    def spying_prepare(*args, **kwargs):
        events.append("prepare")
        return prepare(*args, **kwargs)

    def spying_solve_many(machine, batches, **kwargs):
        events.append(len(batches))
        return solve_chunk(machine, batches, **kwargs)

    monkeypatch.setattr(approach, "prepare_iteration", spying_prepare)
    monkeypatch.setattr(replication, "solve_many", spying_solve_many)
    cell = dict(machine=KRAKEN, ranks=9216, iterations=2, data_per_rank=45 * MB, seed=0)
    streamed = run_replications(approach, replications=30, **cell)
    assert [members for members, _ in calls] == [13, 13, 13, 13, 8]
    # Each call's plans are drawn before it, and only the first plan that
    # did not fit is drawn ahead; none is drawn inside a call.
    drawn = ["prepare"] * 13
    assert events == [*drawn, "prepare", 13, *[*drawn, 13] * 3, *drawn[:7], 8]
    engine_calls = list(calls)
    calls.clear()
    rngs = [replication_rng(0, 9216, approach, r) for r in range(30)]
    plans = [prepare(KRAKEN, 9216, 45 * MB, rng) for rng in rngs for _ in range(2)]
    done = solve_many(KRAKEN, [plan.batch for plan in plans], large_writes=False)
    assert calls == engine_calls
    for index, (plan, times) in enumerate(zip(plans, done, strict=True)):
        assert _results_equal(plan.finalize(times), streamed[index // 2][index % 2])


def test_solve_prepared_returns_a_mixed_write_class_stream_in_order():
    # Each run of one write class is solved apart (file-per-process writes
    # small, damaris large); every result still comes back in plan order.
    names = ["file-per-process", "damaris", "damaris", "file-per-process"]
    plans = [
        resolve_approach(name).plan_iteration(KRAKEN, 288, 45 * MB, np.random.default_rng(seed))
        for seed, name in enumerate(names)
    ]
    got = list(solve_prepared(KRAKEN, iter(plans)))
    for plan, result in zip(plans, got, strict=True):
        done = solve(KRAKEN, plan.batch, large_writes=plan.large_writes)
        assert _results_equal(result, plan.finalize(done))


def test_spare_time_solves_a_scale_in_one_engine_call(monkeypatch):
    # 30 replications x 3 iterations of 768 node flushes: 69,120 requests
    # plus 90 x 336 virtual OSTs fit one call.
    from repro.experiments import run_spare_time

    calls = _spy_engine_calls(monkeypatch)
    run_spare_time(scales=(9216,), replications=30)
    assert calls == [(90, 69120)]


def test_replicated_cell_peak_grows_slower_than_its_replications():
    """``run_replications``' traced peak for one 9216-rank file-per-process
    cell of 2 iterations, at 30 and 60 replications.

    Measured with numpy 2.4: 21.9 -> 42.9 MiB (1.95x) when every plan
    lived through the solve of the whole cell; 12.0 -> 16.7 MiB (1.39x)
    streamed, where the growth is mostly the results the call returns.
    """
    cell = dict(machine=KRAKEN, ranks=9216, iterations=2, data_per_rank=45 * MB, seed=0)
    peaks = []
    # Under PYTHONTRACEMALLOC tracing is already on: measure from a reset
    # peak, and leave the caller's tracing running.
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for replications in (30, 60):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results = run_replications("file-per-process", replications=replications, **cell)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del results
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[1] <= 1.6 * peaks[0], peaks


# -- solve_many ------------------------------------------------------------


def test_solve_many_matches_per_batch_solving_on_both_backends():
    rng = np.random.default_rng(11)
    batches = [
        RequestBatch(
            arrival=rng.uniform(0.0, 10.0, 200),
            ost=rng.integers(0, KRAKEN.ost_count, 200),
            nbytes=rng.uniform(MB, 90 * MB, 200),
        )
        for _ in range(6)
    ]
    backgrounds = [rng.poisson(1.2, KRAKEN.ost_count).astype(float), None] * 3
    # An exact tie: on every OST a second 45 MiB write arrives the instant
    # the first completes at 90 MiB/s.  Four copies span 1344 virtual OSTs.
    lanes = np.arange(KRAKEN.ost_count)
    tie = RequestBatch(
        arrival=np.repeat([0.2425, 0.7425], KRAKEN.ost_count),
        ost=np.concatenate([lanes, lanes]),
        nbytes=45 * MB,
    )
    inputs = [(batches, backgrounds), ([tie] * 4, [None] * 4)]
    for backend in ("vectorized", "reference"):
        for stack, stack_backgrounds in inputs:
            with use_backend(backend):
                stacked = solve_many(
                    KRAKEN, stack, backgrounds=stack_backgrounds, large_writes=False
                )
            for batch, background, done in zip(stack, stack_backgrounds, stacked, strict=True):
                alone = solve(
                    KRAKEN, batch, background=background, large_writes=False, backend=backend
                )
                np.testing.assert_array_equal(done, alone)
        # The reference's own rounding of the tied completion.
        for done in stacked:
            np.testing.assert_array_equal(done[: KRAKEN.ost_count], 0.7424999999999999)


def test_solve_many_vectorized_agrees_with_reference_ground_truth():
    # The reference backend stays the per-replication ground truth: the
    # batched vectorized stack must reproduce R independent reference solves.
    approach = resolve_approach("file-per-process")
    prepared = [
        approach.prepare_iteration(
            KRAKEN, 576, 45 * MB, replication_rng(0, 576, approach, r), DEFAULT_INTERFERENCE
        )
        for r in range(3)
    ]
    batched = solve_many(
        KRAKEN,
        [p.batch for p in prepared],
        backgrounds=[p.background for p in prepared],
        large_writes=False,
    )
    for p, done in zip(prepared, batched, strict=True):
        truth = solve(
            KRAKEN, p.batch, background=p.background, large_writes=False, backend="reference"
        )
        np.testing.assert_allclose(done, truth, rtol=1e-9, atol=1e-6)


def test_solve_many_edge_cases():
    assert solve_many(KRAKEN, [], large_writes=True) == []
    empty = RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    one = RequestBatch(0.0, 3, 45 * MB)
    done = solve_many(KRAKEN, [empty, one], large_writes=True)
    assert done[0].size == 0 and done[1].size == 1
    with pytest.raises(ValueError, match="backgrounds"):
        solve_many(KRAKEN, [one], backgrounds=[None, None], large_writes=True)
    with pytest.raises(ValueError, match="shape"):
        solve_many(KRAKEN, [one], backgrounds=[np.zeros(3)], large_writes=True)


@pytest.mark.parametrize(
    ("span", "spread"),
    [(3 * KRAKEN.ost_count, 2.0), (8, 2.0), (3 * KRAKEN.ost_count, 0.0)],
    ids=["lockstep", "per-lane-heap", "simultaneous"],
)
def test_solve_many_keeps_a_shared_size_one_value(monkeypatch, span, spread):
    """Members that each broadcast one size stack without n copies of it.

    The stacked batch and its lane order keep ``nbytes`` zero-stride
    (strides ``(8,)`` when the stack concatenated every member's column,
    ``(0,)`` since), skipping empty members such as the collective's
    analytic plan.  The completion times equal, bit for bit, those of the
    same members with materialised ``np.full`` size columns, whether the
    lanes run in lockstep or, on ``span`` = 8 OSTs, one heap loop each,
    and whether the requests are staggered or all arrive at once.
    """
    import repro.engine.batching as batching

    rng = np.random.default_rng(5)
    arrivals = [rng.uniform(0.0, spread, n) for n in (600, 0, 600, 1)]
    osts = [rng.integers(0, span, a.size) for a in arrivals]

    def members(size_column):
        return [
            RequestBatch(a, o, size_column(a.size)) for a, o in zip(arrivals, osts, strict=True)
        ]

    seen = {}

    def spying_solve(machine, batch, **kwargs):
        seen["batch"] = batch
        return solve(machine, batch, **kwargs)

    lanes = RequestBatch.lanes

    def spying_lanes(self, ost_count):
        seen["lanes"] = lanes(self, ost_count)
        return seen["lanes"]

    monkeypatch.setattr(batching, "solve", spying_solve)
    monkeypatch.setattr(RequestBatch, "lanes", spying_lanes)
    for backend in ("vectorized", "reference"):
        seen.clear()
        with use_backend(backend):
            shared = solve_many(KRAKEN, members(lambda n: 45 * MB), large_writes=False)
            assert seen["batch"].nbytes.strides == (0,)
            if backend == "vectorized":
                assert seen["lanes"].nbytes.strides == (0,)
            full = solve_many(KRAKEN, members(lambda n: np.full(n, 45 * MB)), large_writes=False)
            assert seen["batch"].nbytes.strides == (8,)
        for got, want in zip(shared, full, strict=True):
            np.testing.assert_array_equal(got, want)
    # Sizes that differ, in value or only in sign, stay one column each.
    for sizes in ([MB, 2 * MB], [0.0, -0.0]):
        batches = [RequestBatch(arrivals[0], osts[0], size) for size in sizes]
        solve_many(KRAKEN, batches, large_writes=False)
        want = np.repeat(sizes, arrivals[0].size)
        np.testing.assert_array_equal(seen["batch"].nbytes, want)
        assert np.signbit(seen["batch"].nbytes).tolist() == np.signbit(want).tolist()


def _random_member(rng, n, lanes):
    """A batch of ``n`` writes on ``lanes`` OSTs, with ids beyond ``ost_count``."""
    if n == 0:
        return RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    staggered = rng.random() < 0.7
    return RequestBatch(
        arrival=rng.uniform(0.0, 5.0, n) if staggered else rng.uniform(0.0, 1.0),
        ost=rng.integers(0, lanes, n) + KRAKEN.ost_count * rng.integers(0, 3, n),
        nbytes=rng.uniform(MB, 64 * MB, n) if rng.random() < 0.5 else 16 * MB,
    )


def _random_groups(seed, lanes):
    """Contention groups of 1-3 random members, plus an all-empty group and
    a group with no members; quiet, integer and fractional backgrounds."""
    rng = np.random.default_rng(seed)
    groups = [
        [
            _random_member(rng, int(rng.choice([0, 1, 60, 200])), lanes)
            for _ in range(rng.integers(1, 4))
        ]
        for _ in range(6)
    ]
    groups += [[_random_member(rng, 0, lanes)], []]
    loads = [None, rng.poisson(1.0, KRAKEN.ost_count) * 1.0, rng.uniform(0, 2.5, KRAKEN.ost_count)]
    backgrounds = [loads[k % 3] for k in range(len(groups))]
    return groups, backgrounds


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize(("seed", "lanes"), [(3, 48), (4, KRAKEN.ost_count)])
def test_solve_groups_equals_each_merged_group_solved_alone(backend, seed, lanes):
    # The oracle: merge a group's members into one batch, solve it alone
    # against the group's own background, split the times back out.  On
    # 48 crowded lanes every solve runs the per-lane heap loop; spread
    # over all lanes, the stack is wide enough for the lockstep kernel.
    groups, backgrounds = _random_groups(seed, lanes)
    want = []
    for group, background in zip(groups, backgrounds, strict=True):
        if not group:
            want.append([])
            continue
        merged, segments = merge_batches(group)
        done = solve(KRAKEN, merged, background=background, large_writes=False, backend=backend)
        want.append(split_by_segment(done, segments, len(group)))
    with use_backend(backend):
        got = solve_groups(KRAKEN, groups, backgrounds=backgrounds, large_writes=False)
    assert len(got) == len(groups)
    for k, (parts, expected) in enumerate(zip(got, want, strict=True)):
        assert len(parts) == len(expected), k
        for part, truth in zip(parts, expected, strict=True):
            assert part.dtype == truth.dtype
            np.testing.assert_array_equal(part, truth, err_msg=str(k))


def _each_group_solved_alone(groups, backgrounds, backend):
    """Each group's members merged, solved alone against the group's own
    background, and split back out: the per-group oracle."""
    want = []
    for group, background in zip(groups, backgrounds, strict=True):
        if not group:
            want.append([])
            continue
        merged, segments = merge_batches(group)
        done = solve(KRAKEN, merged, background=background, large_writes=False, backend=backend)
        want.append(split_by_segment(done, segments, len(group)))
    return want


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize(("seed", "lanes"), [(3, 48), (4, KRAKEN.ost_count)])
def test_capped_engine_calls_equal_each_merged_group_solved_alone(
    monkeypatch, backend, seed, lanes
):
    """Groups packed into capped engine calls solve as each group alone.

    At a cap of 1300 units a call holds one to three groups, each costing
    its requests plus its 336 virtual OSTs.  A two-member group of 1000
    requests, over the cap, appears three times and gets calls of its
    own, whole.  The second copy is followed by the all-empty and the
    member-less group, which share a call of no requests; the third by a
    lone member-less group, which needs no call at all.
    """
    import repro.engine.batching as batching

    cap = 1300
    calls = []

    def spying_solve(machine, batch, **kwargs):
        # Requests per group of the call, in order.
        blocks = machine.ost_count // KRAKEN.ost_count
        calls.append(np.bincount(batch.ost // KRAKEN.ost_count, minlength=blocks))
        return solve(machine, batch, **kwargs)

    monkeypatch.setattr(batching, "_MAX_STACK_UNITS", cap)
    monkeypatch.setattr(batching, "solve", spying_solve)
    groups, loads = _random_groups(seed, lanes)
    rng = np.random.default_rng(seed)
    big = [_random_member(rng, 600, lanes), _random_member(rng, 400, lanes)]
    groups = [*groups[:3], big, *groups[3:6], big, *groups[6:], big, []]
    backgrounds = [*loads[:3], None, *loads[3:6], loads[1], *loads[6:], loads[2], None]
    with use_backend(backend):
        got = solve_groups(KRAKEN, groups, backgrounds=backgrounds, large_writes=False)
    want = _each_group_solved_alone(groups, backgrounds, backend)
    assert len(got) == len(groups)
    for k, (parts, expected) in enumerate(zip(got, want, strict=True)):
        assert len(parts) == len(expected), k
        for part, truth in zip(parts, expected, strict=True):
            np.testing.assert_array_equal(part, truth, err_msg=str(k))
    # Every group but the last lands whole in one call, in order.
    sizes = [sum(len(batch) for batch in group) for group in groups]
    assert np.concatenate(calls).tolist() == sizes[:-1]
    for requests in calls:
        assert 1 <= requests.size <= 3
        assert requests.sum() + requests.size * KRAKEN.ost_count <= cap or requests.size == 1
    held = [requests.tolist() for requests in calls]
    assert held.count([1000]) == 3 and [0, 0] in held


def test_solve_groups_edge_cases():
    assert solve_groups(KRAKEN, [], large_writes=True) == []
    assert solve_groups(KRAKEN, [[], []], large_writes=True) == [[], []]
    one = RequestBatch(0.0, 3, 45 * MB)
    with pytest.raises(ValueError, match="backgrounds"):
        solve_groups(KRAKEN, [[one]], backgrounds=[None, None], large_writes=True)


def test_stacked_solve_peak_stays_flat_as_the_stack_doubles(monkeypatch):
    """``solve_many``'s traced peak above its inputs, less its results.

    The stacks are 120 and 240 file-per-process iterations of 2304 ranks
    on kraken, 276,480 and 552,960 requests, as full-scale E1 stacks them
    at 60 and 120 replications.  Measured with numpy 2.4, 240 members
    over 120 read 2.00x when one engine call held the whole stack and
    0.96x with calls of at most ``_MAX_STACK_UNITS`` requests plus
    virtual OSTs each.  Every call, 49 members at most, keeps the
    members' shared size one broadcast value.
    """
    import repro.engine.batching as batching

    strides = []

    def spying_solve(machine, batch, **kwargs):
        strides.append(batch.nbytes.strides)
        return solve(machine, batch, **kwargs)

    monkeypatch.setattr(batching, "solve", spying_solve)
    approach = resolve_approach("file-per-process")
    batches = [
        approach.plan_iteration(KRAKEN, 2304, 45 * MB, np.random.default_rng(seed)).batch
        for seed in range(240)
    ]
    peaks = []
    # Under PYTHONTRACEMALLOC tracing is already on: measure from a reset
    # peak, and leave the caller's tracing running.
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for members in (120, 240):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            done = solve_many(KRAKEN, batches[:members], large_writes=False)
            results = 8 * sum(len(times) for times in done)
            peaks.append(tracemalloc.get_traced_memory()[1] - before - results)
            del done
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks
    assert strides == [(0,)] * (3 + 5)


# -- bootstrap -------------------------------------------------------------


def test_bootstrap_ci_is_deterministic_and_ordered():
    samples = np.random.default_rng(0).normal(10.0, 2.0, 30)
    lo1, hi1 = bootstrap_ci(samples, key="io_mean_s")
    lo2, hi2 = bootstrap_ci(samples, key="io_mean_s")
    assert (lo1, hi1) == (lo2, hi2)
    assert lo1 < samples.mean() < hi1
    # Another column key draws an independent resampling stream.
    assert bootstrap_ci(samples, key="other") != (lo1, hi1)


def test_bootstrap_ci_narrows_with_confidence_and_samples():
    rng = np.random.default_rng(1)
    samples = rng.normal(5.0, 1.0, 40)
    lo90, hi90 = bootstrap_ci(samples, confidence=0.90, key="x")
    lo99, hi99 = bootstrap_ci(samples, confidence=0.99, key="x")
    assert hi90 - lo90 < hi99 - lo99


def test_bootstrap_ci_degenerate_and_invalid():
    assert bootstrap_ci([4.2]) == (4.2, 4.2)
    with pytest.raises(ValueError):
        bootstrap_ci([])
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], confidence=1.5)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], resamples=0)


# -- table reduction -------------------------------------------------------


def _replicated_table() -> Table:
    rng = np.random.default_rng(2)
    table = Table()
    for approach, base in (("damaris", 0.07), ("collective", 120.0)):
        for replication in range(8):
            table.append(
                approach=approach,
                ranks=1152,
                files_created=5,
                io_mean_s=float(base * rng.lognormal(0.0, 0.05)),
                replication=replication,
            )
    return table


def test_reduce_replications_produces_ci_family():
    reduced = reduce_replications(_replicated_table(), ("approach", "ranks"))
    assert len(reduced) == 2
    row = reduced.where(approach="damaris")[0]
    assert row["replications"] == 8
    for suffix in ("", "_std", "_cv", "_p95", "_ci_lo", "_ci_hi"):
        assert f"io_mean_s{suffix}" in row, suffix
    assert row["io_mean_s_ci_lo"] <= row["io_mean_s"] <= row["io_mean_s_ci_hi"]
    assert row["io_mean_s_cv"] == pytest.approx(
        row["io_mean_s_std"] / row["io_mean_s"], rel=1e-12
    )
    # Constant metadata is carried, the replication index is dropped.
    assert row["files_created"] == 5
    assert "replication" not in row


def test_reduce_replications_is_deterministic():
    a = reduce_replications(_replicated_table(), ("approach", "ranks"))
    b = reduce_replications(_replicated_table(), ("approach", "ranks"))
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_reduce_drops_varying_non_float_columns():
    table = Table(
        [
            {"cell": "a", "note": "x", "v": 1.0, "replication": 0},
            {"cell": "a", "note": "y", "v": 2.0, "replication": 1},
        ]
    )
    row = reduce_replications(table, "cell")[0]
    assert "note" not in row
    assert row["v"] == pytest.approx(1.5)


def test_reduce_replications_count_ignores_sparse_columns():
    # Regression: a column only some replications emit must not understate
    # the group's replication count (it is the row count, not the sparse
    # column's value count).
    table = Table(
        [
            {"cell": "a", "x": 1.0, "extra": 5.0, "replication": 0},
            {"cell": "a", "x": 2.0, "replication": 1},
            {"cell": "a", "x": 3.0, "replication": 2},
        ]
    )
    row = reduce_replications(table, "cell")[0]
    assert row["replications"] == 3
    assert row["x"] == pytest.approx(2.0)
    assert row["extra"] == pytest.approx(5.0)


def test_reduce_replications_groups_by_several_keys_in_first_seen_order():
    table = Table(
        [
            {"k": "b", "n": 2, "v": 1.0, "replication": 0},
            {"k": "a", "n": 1, "v": 2.0, "replication": 0},
            {"k": "b", "n": 2, "v": 3.0, "replication": 1},
        ]
    )
    reduced = reduce_replications(table, ("k", "n"))
    assert [(r["k"], r["n"], r["replications"]) for r in reduced] == [("b", 2, 2), ("a", 1, 1)]
    # Group columns, the count, then each column's family in first-seen order.
    family = ["v", "v_std", "v_cv", "v_p95", "v_ci_lo", "v_ci_hi"]
    assert list(reduced[0].keys()) == ["k", "n", "replications", *family]


def test_reduce_replications_rejects_a_missing_or_empty_group_by():
    table = Table([{"k": "a", "v": 1.0}, {"v": 2.0}])
    with pytest.raises(KeyError, match="'k'"):
        reduce_replications(table, "k")
    with pytest.raises(ValueError, match="at least one group column"):
        reduce_replications(table, ())
