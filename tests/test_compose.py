"""Multi-application composition, trace record/replay, and experiment E9."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro import io_models
from repro.engine import (
    KRAKEN,
    NO_INTERFERENCE,
    Interference,
    RequestBatch,
    merge_batches,
    solve,
    split_by_segment,
)
from repro.experiments import check_app_interference_shape, run_app_interference
from repro.io_models import (
    DedicatedCores,
    IOApproach,
    IterationPlan,
    IterationResult,
    resolve_approach,
)
from repro.util import MB, seed_key
from repro.workloads import (
    Trace,
    Workload,
    replay_trace,
    resolve_arrival_process,
    run_composition,
    workload_rng,
)

FG = Workload(app="sim", ranks=192, data_per_rank=45 * MB, arrival="periodic", approach="damaris")
BG = Workload(
    app="background",
    ranks=96,
    data_per_rank=45 * MB,
    arrival="burst",
    approach="file-per-process",
)


# -- engine merge/split helpers -------------------------------------------


def test_merge_batches_preserves_order_and_tags():
    a = RequestBatch(arrival=[0.0, 1.0], ost=[3, 4], nbytes=[MB, 2 * MB])
    b = RequestBatch(arrival=0.5, ost=9, nbytes=3 * MB)
    merged, segments = merge_batches([a, b])
    assert len(merged) == 3
    np.testing.assert_array_equal(segments, [0, 0, 1])
    np.testing.assert_array_equal(merged.ost, [3, 4, 9])


def test_merge_batches_accepts_empty_members():
    empty = RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
    merged, segments = merge_batches([empty, RequestBatch(0.0, 1, MB)])
    assert len(merged) == 1
    np.testing.assert_array_equal(segments, [1])


def test_merge_batches_rejects_nothing():
    with pytest.raises(ValueError):
        merge_batches([])


def test_split_by_segment_round_trips():
    merged, segments = merge_batches([RequestBatch(0.0, [1, 2], MB), RequestBatch(0.0, 3, 2 * MB)])
    values = np.array([10.0, 20.0, 30.0])
    parts = split_by_segment(values, segments, 2)
    np.testing.assert_array_equal(parts[0], [10.0, 20.0])
    np.testing.assert_array_equal(parts[1], [30.0])
    with pytest.raises(ValueError):
        split_by_segment(values[:2], segments, 2)


# -- external arrivals on the approaches ----------------------------------


def test_run_iteration_zero_arrivals_matches_none():
    for name in ("file-per-process", "collective", "damaris", "dedicated-nodes"):
        approach = resolve_approach(name)
        clients = approach.clients(KRAKEN, 192)
        a = approach.run_iteration(KRAKEN, 192, 45 * MB, np.random.default_rng(1))
        b = approach.run_iteration(
            KRAKEN, 192, 45 * MB, np.random.default_rng(1), arrivals=np.zeros(clients)
        )
        np.testing.assert_array_equal(a.visible_times, b.visible_times)
        assert a.backend_wall_s == b.backend_wall_s
        assert a.backend_busy_s == b.backend_busy_s


def test_staggered_arrivals_shift_the_backend_wall():
    approach = resolve_approach("damaris")
    clients = approach.clients(KRAKEN, 192)
    late = np.full(clients, 30.0)
    a = approach.run_iteration(KRAKEN, 192, 45 * MB, np.random.default_rng(2))
    b = approach.run_iteration(KRAKEN, 192, 45 * MB, np.random.default_rng(2), arrivals=late)
    # The flush cannot start before the last client arrives.
    assert b.backend_wall_s == pytest.approx(a.backend_wall_s + 30.0, rel=1e-9)
    # The visible cost is still the node-local copy.
    np.testing.assert_array_equal(a.visible_times, b.visible_times)


def test_run_iteration_rejects_bad_arrivals():
    approach = resolve_approach("file-per-process")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        approach.run_iteration(KRAKEN, 192, 45 * MB, rng, arrivals=np.zeros(191))
    with pytest.raises(ValueError):
        approach.run_iteration(KRAKEN, 192, 45 * MB, rng, arrivals=np.full(192, -1.0))
    nan = np.zeros(192)
    nan[0] = np.nan
    with pytest.raises(ValueError):
        approach.run_iteration(KRAKEN, 192, 45 * MB, rng, arrivals=nan)


# -- composition ----------------------------------------------------------


def test_composition_is_deterministic():
    a = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=5)
    b = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=5)
    for app in a.apps:
        for x, y in zip(a.completions[app], b.completions[app], strict=True):
            np.testing.assert_array_equal(x, y)
    c = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=6)
    assert not np.array_equal(a.completions["sim"][0], c.completions["sim"][0])


def test_foreground_stream_survives_background_changes():
    # The crc32 name-hash seeding gives every workload its own stream, so
    # adding a contender cannot change what the foreground *generates* —
    # only what it experiences.
    solo = run_composition(KRAKEN, [FG], 2, period=60.0, seed=0)
    both = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=0)
    for a, b in zip(solo.trace.iterations, both.trace.iterations, strict=True):
        np.testing.assert_array_equal(a.batches["sim"].arrival, b.batches["sim"].arrival)
        np.testing.assert_array_equal(a.batches["sim"].nbytes, b.batches["sim"].nbytes)


def test_contention_slows_the_merged_solve():
    solo = run_composition(KRAKEN, [FG], 2, period=60.0, seed=0)
    both = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=0)
    # Damaris foreground: visible cost identical, backend wall slower.
    np.testing.assert_array_equal(
        solo.results["sim"][0].visible_times, both.results["sim"][0].visible_times
    )
    assert both.results["sim"][0].backend_wall_s > solo.results["sim"][0].backend_wall_s


def test_composition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_composition(KRAKEN, [], 1, period=60.0)
    with pytest.raises(ValueError):
        run_composition(KRAKEN, [FG, FG], 1, period=60.0)  # duplicate app name
    with pytest.raises(ValueError):
        run_composition(KRAKEN, [FG], 0, period=60.0)


def test_mixed_write_classes_use_the_steep_slope():
    # One small-write application drags the merged solve into the
    # steep-seek regime for everybody.
    both = run_composition(KRAKEN, [FG, BG], 1, period=60.0, seed=0)
    assert not both.trace.iterations[0].large_writes
    solo = run_composition(KRAKEN, [FG], 1, period=60.0, seed=0)
    assert solo.trace.iterations[0].large_writes


# -- stacked composition vs the per-iteration loop --------------------------


class _CoinFlipClass(DedicatedCores):
    """damaris with its write class drawn per iteration, so one composition
    solves iterations of both classes."""

    name = "coin-flip-class"

    def plan_iteration(self, machine, ranks, data_per_rank, rng, arrivals=None):
        plan = super().plan_iteration(machine, ranks, data_per_rank, rng, arrivals)
        return dataclasses.replace(plan, large_writes=bool(rng.random() < 0.5))


class _Silent(IOApproach):
    """An application that puts nothing on the OSTs."""

    name = "silent"

    def plan_iteration(self, machine, ranks, data_per_rank, rng, arrivals=None):
        def finalize(done):
            assert done.size == 0
            return IterationResult(np.zeros(ranks), 0.0, 0.0, 0.0, 0)

        empty = RequestBatch(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0))
        return IterationPlan(batch=empty, large_writes=True, finalize=finalize)


@pytest.fixture
def extra_approaches(monkeypatch):
    for approach in (_CoinFlipClass(), _Silent()):
        monkeypatch.setitem(io_models._APPROACHES, approach.name, approach)


def _serial_composition(machine, workloads, iterations, *, period, seed, interference, backend):
    """The per-iteration loop: merge, solve and split one iteration at a time."""
    states = [
        (w, resolve_approach(w.approach), resolve_arrival_process(w.arrival), workload_rng(seed, w))
        for w in workloads
    ]
    effective = NO_INTERFERENCE if interference is None else interference
    background_rng = np.random.default_rng([seed, seed_key("composition-background")])
    apps = [w.app for w in workloads]
    results = {app: [] for app in apps}
    completions = {app: [] for app in apps}
    trace = []
    for _ in range(iterations):
        plans = []
        for workload, approach, process, rng in states:
            arrivals = process.sample(rng, approach.clients(machine, workload.ranks), period)
            plans.append(
                approach.plan_iteration(
                    machine, workload.ranks, workload.data_per_rank, rng, arrivals
                )
            )
        background = effective.sample_background(machine, background_rng)
        large_writes = all(plan.large_writes for plan in plans)
        merged, segments = merge_batches([plan.batch for plan in plans])
        done = solve(
            machine, merged, background=background, large_writes=large_writes, backend=backend
        )
        trace.append((large_writes, background, [plan.batch for plan in plans]))
        parts = split_by_segment(done, segments, len(plans))
        for app, plan, part in zip(apps, plans, parts, strict=True):
            results[app].append(plan.finalize(part))
            completions[app].append(part)
    return results, completions, trace


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


_SIM = Workload(app="sim", ranks=96, arrival="periodic", approach="damaris")
_FPP = Workload(app="writer", ranks=48, arrival="burst", approach="file-per-process")
#: Case -> (workloads, iterations, interference); built lazily, because the
#: test-only approaches are registered by a fixture.
_CASES = {
    # A damaris foreground beside a small-write contender.
    "mixed-apps": lambda: ([_SIM, _FPP], 5, None),
    "one-iteration": lambda: ([_SIM, _FPP], 1, None),
    # Iterations of both write classes in one composition.
    "both-classes": lambda: (
        [
            _SIM.with_overrides(approach="coin-flip-class"),
            _SIM.with_overrides(app="peer", arrival="poisson"),
        ],
        5,
        None,
    ),
    "default-interference": lambda: (
        [_SIM.with_overrides(approach="collective", arrival="jittered"), _FPP],
        5,
        Interference(),
    ),
    "empty-app": lambda: (
        [_SIM.with_overrides(arrival="poisson"), Workload(app="idle", ranks=8, approach="silent")],
        5,
        None,
    ),
    "only-empty": lambda: ([Workload(app="idle", ranks=8, approach="silent")], 1, None),
    # Two periodic apps: identical (all-zero) arrivals on shared OSTs.
    "identical-arrivals": lambda: ([_SIM, _SIM.with_overrides(app="twin")], 5, None),
}


@pytest.mark.usefixtures("extra_approaches")
@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_stacked_composition_equals_the_per_iteration_loop(case, backend):
    # 12 OSTs, so every iteration's writes contend and no two iterations
    # finish alike.
    machine = KRAKEN.with_overrides(ost_count=12)
    workloads, iterations, interference = _CASES[case]()
    kwargs = dict(period=60.0, seed=11, interference=interference, backend=backend)
    out = run_composition(machine, workloads, iterations, **kwargs)
    results, completions, trace = _serial_composition(machine, workloads, iterations, **kwargs)
    if case == "both-classes":
        assert {large for large, _, _ in trace} == {False, True}
    for app in out.apps:
        for got, want in zip(out.results[app], results[app], strict=True):
            _assert_same_arrays(got.visible_times, want.visible_times)
            assert dataclasses.replace(got, visible_times=None) == dataclasses.replace(
                want, visible_times=None
            )
        for got, want in zip(out.completions[app], completions[app], strict=True):
            _assert_same_arrays(got, want)
    assert len(out.trace.iterations) == len(trace)
    for recorded, (large_writes, background, batches) in zip(
        out.trace.iterations, trace, strict=True
    ):
        assert recorded.large_writes == large_writes
        _assert_same_arrays(recorded.background, background)
        for app, batch in zip(out.apps, batches, strict=True):
            for field in ("arrival", "ost", "nbytes"):
                _assert_same_arrays(getattr(recorded.batches[app], field), getattr(batch, field))
    replayed = replay_trace(out.trace, backend=backend)
    for app in out.apps:
        for got, want in zip(replayed[app], out.completions[app], strict=True):
            _assert_same_arrays(got, want)


# -- trace record/replay --------------------------------------------------


def test_trace_round_trips_through_jsonl(tmp_path):
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=3, trace_path=path)
    loaded = Trace.load(path)
    assert loaded.machine == "kraken"
    assert loaded.apps == ("sim", "background")
    assert len(loaded) == 2
    for recorded, read in zip(out.trace.iterations, loaded.iterations, strict=True):
        assert recorded.large_writes == read.large_writes
        np.testing.assert_array_equal(recorded.background, read.background)
        for app in out.apps:
            np.testing.assert_array_equal(recorded.batches[app].arrival, read.batches[app].arrival)
            np.testing.assert_array_equal(recorded.batches[app].nbytes, read.batches[app].nbytes)
            np.testing.assert_array_equal(recorded.batches[app].ost, read.batches[app].ost)


def test_replay_reproduces_the_live_run_exactly(tmp_path):
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=4, trace_path=path)
    replayed = replay_trace(path)
    for app in out.apps:
        for live, again in zip(out.completions[app], replayed[app], strict=True):
            np.testing.assert_array_equal(live, again)


def test_replay_rebuilds_an_overridden_machine(tmp_path):
    # The trace names the machine "kraken"; the replay must rebuild the
    # overridden machine from its recorded fields, not the registered one.
    path = tmp_path / "scenario.jsonl"
    small = KRAKEN.with_overrides(ost_count=24, ost_bandwidth=KRAKEN.ost_bandwidth / 2)
    out = run_composition(small, [FG, BG], 2, period=60.0, seed=4, trace_path=path)
    replayed = replay_trace(path)
    for app in out.apps:
        for live, again in zip(out.completions[app], replayed[app], strict=True):
            np.testing.assert_array_equal(live, again)


def test_replay_agrees_across_engine_backends(tmp_path):
    # The acceptance bar: a recorded trace replayed through both engine
    # backends yields identical per-app completion times.
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=5, trace_path=path)
    vec = replay_trace(path, backend="vectorized")
    ref = replay_trace(path, backend="reference")
    for app in out.apps:
        for a, b in zip(vec[app], ref[app], strict=True):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-6)


def test_trace_load_rejects_garbage(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        Trace.load(empty)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "solve", "iteration": 0}\n')
    with pytest.raises(ValueError):
        Trace.load(bad)


def _recorded_trace(tmp_path):
    """A one-iteration trace on disk and its records (header, solve, sim, background)."""
    path = tmp_path / "scenario.jsonl"
    run_composition(KRAKEN, [FG, BG], 1, period=60.0, seed=3, trace_path=path)
    return path, [json.loads(line) for line in path.read_text().splitlines()]


def _rewrite(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


def _load_fails_at(path, line_no, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line_no}: {message}"):
        Trace.load(path)


def test_trace_load_names_file_and_line_of_invalid_json(tmp_path):
    # Was a bare JSONDecodeError naming neither the file nor the line.
    path, _ = _recorded_trace(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:40]
    path.write_text("\n".join(lines) + "\n")
    _load_fails_at(path, 3, r"invalid JSON")


def test_trace_load_names_a_missing_key(tmp_path):
    # Was a bare KeyError('nbytes').
    path, records = _recorded_trace(tmp_path)
    del records[2]["nbytes"]
    _rewrite(path, records)
    _load_fails_at(path, 3, r"record lacks key 'nbytes'")


@pytest.mark.parametrize("keep", [1, -1], ids=["one-entry-arrival", "short-arrival"])
def test_trace_load_rejects_ragged_batch_columns(tmp_path, keep):
    # A one-entry arrival column silently broadcast to the batch length; a
    # shorter one failed with a numpy broadcast error.
    path, records = _recorded_trace(tmp_path)
    records[2]["arrival"] = records[2]["arrival"][:keep]
    _rewrite(path, records)
    _load_fails_at(path, 3, r"batch columns must be flat lists of one length")


def test_trace_load_rejects_background_not_covering_recorded_osts(tmp_path):
    # Three entries for a 336-OST machine loaded, and failed only at replay.
    path, records = _recorded_trace(tmp_path)
    records[1]["background"] = records[1]["background"][:3]
    _rewrite(path, records)
    _load_fails_at(path, 2, r"background must hold one entry per OST .*\(336\)")


def test_trace_batch_lines_hold_three_columns(tmp_path):
    path, records = _recorded_trace(tmp_path)
    for record in records[2:]:
        assert set(record) == {"type", "iteration", "app", "arrival", "ost", "nbytes"}
    assert len(Trace.load(path)) == 1


def test_trace_with_a_tag_column_loads_and_replays_exactly(tmp_path):
    # Traces used to carry a per-request "tag" column; the reader ignores it.
    path = tmp_path / "scenario.jsonl"
    out = run_composition(KRAKEN, [FG, BG], 2, period=60.0, seed=4, trace_path=path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        if record["type"] == "batch":
            record["tag"] = list(range(len(record["arrival"])))
    _rewrite(path, records)
    replayed = replay_trace(Trace.load(path))
    for app in out.apps:
        for live, again in zip(out.completions[app], replayed[app], strict=True):
            np.testing.assert_array_equal(live, again)


def test_trace_without_machine_fields_still_loads(tmp_path):
    path, records = _recorded_trace(tmp_path)
    del records[0]["machine_fields"]
    _rewrite(path, records)
    loaded = Trace.load(path)
    assert loaded.machine_fields is None
    assert loaded.machine == "kraken"
    assert len(loaded) == 1


# -- experiment E9 --------------------------------------------------------


_E9_KW = {
    "ranks": 192,
    "iterations": 2,
    "data_per_rank": 45 * MB,
    "compute_time": 60.0,
    "seed": 0,
    # The E6 trick: reach the contended (writers ≈ OSTs) regime cheaply by
    # shrinking the file system instead of growing the applications.
    "machine": KRAKEN.with_overrides(ost_count=24),
}


def test_e9_table_and_shape():
    table = run_app_interference(**_E9_KW)
    assert set(table.column("intensity")) == {"off", "light", "heavy"}
    check_app_interference_shape(table)
    # The off cells compose the foreground alone.
    assert all(row["bg_ranks"] == 0 for row in table.where(intensity="off"))
    assert all(row["bg_ranks"] > 0 for row in table.where(intensity="heavy"))


def test_e9_records_per_cell_traces(tmp_path):
    run_app_interference(
        **_E9_KW,
        approaches=["damaris"],
        intensities=("off", "heavy"),
        trace_dir=tmp_path,
    )
    assert (tmp_path / "e9-off-damaris.jsonl").exists()
    assert (tmp_path / "e9-heavy-damaris.jsonl").exists()
    replayed = replay_trace(tmp_path / "e9-heavy-damaris.jsonl")
    assert set(replayed) == {"sim", "background"}


def test_e9_background_override():
    quiet_bg = Workload(app="background", ranks=48, arrival="poisson", approach="damaris")
    table = run_app_interference(
        **_E9_KW, approaches=["damaris"], intensities=("heavy",), background=quiet_bg
    )
    assert table[0]["bg_ranks"] == 48


def test_e9_rejects_unknown_intensity():
    with pytest.raises(ValueError):
        run_app_interference(**_E9_KW, intensities=("extreme",))
