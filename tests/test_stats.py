"""Unit tests for the repro.stats subsystem.

Covers the bootstrap CI, the replication seeding scheme, the batched
replication driver's exact equivalence with serial per-replication
solving (and with the reference backend as ground truth), and the
table-reduction layer.
"""

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
    lanes run in lockstep, on ``span`` = 8 OSTs one heap loop each, or,
    when every request arrives at once, through the simultaneous solve.
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
            if backend == "vectorized" and spread:
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


def test_solve_groups_edge_cases():
    assert solve_groups(KRAKEN, [], large_writes=True) == []
    assert solve_groups(KRAKEN, [[], []], large_writes=True) == [[], []]
    one = RequestBatch(0.0, 3, 45 * MB)
    with pytest.raises(ValueError, match="backgrounds"):
        solve_groups(KRAKEN, [[one]], backgrounds=[None, None], large_writes=True)


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
