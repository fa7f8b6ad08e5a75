"""Replication threading through the experiment layer.

``replications=1`` must be bit-identical to the historical single-run
tables; ``replications > 1`` must add the CI column family, stay
bit-identical between the stacked and serial drivers, and keep every
replication independent of the others and every sweep cell independent
of the cells beside it.
"""

import functools

import numpy as np
import pytest

from repro.experiments import (
    check_variability_statistics,
    run_app_interference,
    run_insitu_backpressure,
    run_insitu_scaling,
    run_scheduling,
    run_spare_time,
    run_throughput,
    run_variability,
    run_weak_scaling,
)
from repro.experiments import _driver
from repro.experiments._driver import (
    DEFAULT_INTERFERENCE,
    iteration_period,
    replication_table,
)
from repro.experiments.scheduling import _balanced_waves
from repro.engine import KRAKEN, RequestBatch, solve
from repro.io_models import DedicatedCores
from repro.stats import run_replications
from repro.util import GB, MB, replication_seed

_KW = dict(ranks=192, iterations=3, data_per_rank=45 * MB, seed=7)

_CI_SUFFIXES = ("", "_std", "_cv", "_p95", "_ci_lo", "_ci_hi")

_PAPER_APPROACHES = ("file-per-process", "collective", "damaris")


def _rows(table):
    return [row.as_dict() for row in table]


def _use_serial_driver(monkeypatch):
    """Route every E1-E3 cell through the serial ground-truth loop."""
    serial = functools.partial(run_replications, batched=False)
    monkeypatch.setattr(_driver, "run_replications", serial)


def test_variability_single_replication_is_the_historical_table():
    # Pinned from the single-run table: replication 0 must keep drawing
    # from the historical (unreplicated) stream.
    table = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, replications=1)
    historical = {
        "file-per-process": 17.239541238828593,
        "collective": 55.845499231821904,
        "damaris": 0.07340224467066521,
    }
    for approach, io_mean_s in historical.items():
        row = table.where(approach=approach)[0]
        assert row["io_mean_s"] == pytest.approx(io_mean_s, rel=1e-9), approach


@pytest.mark.parametrize("seed", [0, 7, 35])
@pytest.mark.parametrize(
    "interference", [None, DEFAULT_INTERFERENCE], ids=["quiet", "interference"]
)
@pytest.mark.parametrize(
    ("runner", "scale"),
    [
        (run_weak_scaling, {"scales": (96, 192)}),
        (run_variability, {"ranks": 192}),
        (run_throughput, {"ranks": 192}),
    ],
    ids=["e1", "e2", "e3"],
)
def test_single_run_stack_equals_serial_ground_truth(
    runner, scale, interference, seed, monkeypatch
):
    # A single run is replication 0 of a one-deep stack; the serial loop
    # (run_replications(batched=False)) stays its ground truth.
    kwargs = dict(
        **scale,
        iterations=2,
        data_per_rank=45 * MB,
        seed=seed,
        interference=interference,
        approaches=(*_PAPER_APPROACHES, "dedicated-nodes"),
    )
    stacked = _rows(runner(**kwargs))
    _use_serial_driver(monkeypatch)
    assert stacked == _rows(runner(**kwargs))


def test_variability_replicated_emits_ci_columns():
    table = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, replications=3)
    assert set(table.column("replications")) == {3}
    row = table.where(approach="damaris")[0]
    for suffix in _CI_SUFFIXES:
        assert f"io_mean_s{suffix}" in row, suffix
    assert row["io_mean_s_ci_lo"] <= row["io_mean_s"] <= row["io_mean_s_ci_hi"]
    assert "replication" not in row


def test_variability_replicated_is_deterministic_and_seed_sensitive():
    a = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, replications=3)
    b = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, replications=3)
    assert _rows(a) == _rows(b)
    c = run_variability(
        ranks=192,
        iterations=3,
        data_per_rank=45 * MB,
        seed=8,
        interference=DEFAULT_INTERFERENCE,
        replications=3,
    )
    assert _rows(a) != _rows(c)


def test_variability_batched_equals_serial_table(monkeypatch):
    a = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, replications=3)
    _use_serial_driver(monkeypatch)
    b = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, replications=3)
    assert _rows(a) == _rows(b)


def test_variability_statistics_check_passes_at_30_replications():
    table = run_variability(
        ranks=576,
        iterations=3,
        data_per_rank=45 * MB,
        seed=0,
        interference=DEFAULT_INTERFERENCE,
        replications=30,
    )
    check_variability_statistics(table, min_replications=30)


def test_weak_scaling_replicated_sweep_bit_identical_across_jobs(monkeypatch):
    kwargs = dict(
        scales=[144, 288],
        iterations=2,
        data_per_rank=45 * MB,
        seed=3,
        replications=3,
    )
    stacked = run_weak_scaling(**kwargs)
    _use_serial_driver(monkeypatch)
    assert _rows(stacked) == _rows(run_weak_scaling(**kwargs))
    row = stacked.where(approach="damaris", ranks=288)[0]
    for suffix in _CI_SUFFIXES:
        assert f"io_phase_mean_s{suffix}" in row, suffix
    assert "speedup_vs_collective_ci_lo" in row


def test_weak_scaling_single_replication_unchanged():
    # Pinned from the single-run table, as for E2 above.
    table = run_weak_scaling(scales=[144, 288], iterations=2, seed=3, replications=1)
    historical = {
        "file-per-process": 1.2585781700171448,
        "collective": 25.39421037153756,
        "damaris": 0.07960770957783872,
    }
    for approach, io_phase_mean_s in historical.items():
        row = table.where(approach=approach, ranks=288)[0]
        assert row["io_phase_mean_s"] == pytest.approx(io_phase_mean_s, rel=1e-9), approach


def test_weak_scaling_replicated_cells_independent_of_partitioning():
    # Each cell reduces to its rows as it returns; no cell's rows (nor their
    # CIs) may depend on which other scales run alongside it.
    kwargs = dict(iterations=2, seed=0, interference=DEFAULT_INTERFERENCE, replications=2)
    both = _rows(run_weak_scaling(scales=[144, 288], **kwargs))
    assert {(row["ranks"], row["approach"]) for row in both} == {
        (ranks, name) for ranks in (144, 288) for name in _PAPER_APPROACHES
    }
    alone = _rows(run_weak_scaling(scales=[144], **kwargs))
    alone += _rows(run_weak_scaling(scales=[288], **kwargs))
    assert both == alone


def test_throughput_replicated():
    baseline = run_throughput(**_KW)
    assert _rows(run_throughput(**_KW, replications=1)) == _rows(baseline)
    table = run_throughput(**_KW, replications=3)
    row = table.where(approach="damaris")[0]
    assert row["replications"] == 3
    assert "throughput_gb_s_ci_hi" in row


def test_spare_time_replicated():
    baseline = run_spare_time(scales=[144, 288], seed=2)
    assert _rows(run_spare_time(scales=[144, 288], seed=2, replications=1)) == _rows(baseline)
    table = run_spare_time(scales=[144, 288], seed=2, replications=3)
    row = table.where(ranks=288)[0]
    assert row["replications"] == 3
    assert "idle_fraction_ci_lo" in row
    # The idle claim itself must hold on the reduced means.
    assert 0.92 <= row["idle_fraction"] <= 0.999


def test_scheduling_replicated():
    kwargs = dict(ranks=2304, machine=KRAKEN.with_overrides(ost_count=96), seed=1)
    baseline = run_scheduling(**kwargs)
    assert _rows(run_scheduling(**kwargs, replications=1)) == _rows(baseline)
    table = run_scheduling(**kwargs, replications=3)
    scheduled = table.where(policy="scheduled")[0]
    assert scheduled["replications"] == 3
    assert "throughput_gb_s_ci_lo" in scheduled
    unscheduled = table.where(policy="unscheduled")[0]
    assert scheduled["throughput_gb_s"] > unscheduled["throughput_gb_s"]


def _serial_spare_time(machine, scales, *, seed, replications, iterations=3, compute_time=300.0):
    """E4 as the per-iteration loop: one ``run_iteration`` (one solve) each."""
    approach = DedicatedCores()
    rows = []
    for ranks in scales:
        ingest = approach.node_bytes(machine, ranks, 45 * MB) / machine.shm_bandwidth
        for index in range(replications):
            rng = np.random.default_rng([replication_seed(seed, index), ranks])
            results = [
                approach.run_iteration(machine, ranks, 45 * MB, rng) for _ in range(iterations)
            ]
            busy = ingest + float(np.mean([r.backend_busy_s for r in results]))
            copy = float(np.mean([r.visible_times.mean() for r in results]))
            period = iteration_period(compute_time, copy, busy)
            row = {
                "ranks": ranks,
                "nodes": machine.nodes_for(ranks),
                "busy_mean_s": busy,
                "period_s": period,
                "idle_fraction": 1.0 - busy / period,
            }
            rows.append((index, row))
    return replication_table(rows, ("ranks", "nodes"), replications, seed)


@pytest.mark.parametrize("replications", [1, 3])
def test_spare_time_stack_equals_serial_loop(replications):
    # 16 OSTs, so the dedicated cores' writes contend and the busy time
    # depends on the solve, not only on the rng.
    machine = KRAKEN.with_overrides(ost_count=16)
    kwargs = dict(seed=5, replications=replications)
    got = run_spare_time(scales=[144, 576], machine=machine, **kwargs)
    assert _rows(got) == _rows(_serial_spare_time(machine, [144, 576], **kwargs))


def _serial_scheduling(machine, ranks, *, seed, replications, interference, iterations=2):
    """E6 as the per-wave loop: one solve per unscheduled batch and per wave."""
    wave_size = machine.ost_count
    nodes = machine.nodes_for(ranks)
    node_bytes = DedicatedCores().node_bytes(machine, ranks, 45 * MB)
    rows = []
    for index in range(replications):
        rng = np.random.default_rng([replication_seed(seed, index), ranks, wave_size])
        per_iteration = []
        for _ in range(iterations):
            background = (
                None if interference is None else interference.sample_background(machine, rng)
            )
            per_iteration.append((background, rng.permutation(nodes) % machine.ost_count))
        for policy in ("unscheduled", "scheduled"):
            walls = []
            for background, osts in per_iteration:
                if policy == "unscheduled":
                    batch = RequestBatch(arrival=0.0, ost=osts, nbytes=node_bytes)
                    done = solve(machine, batch, background=background, large_writes=True)
                    walls.append(float(done.max()))
                    continue
                wall = 0.0
                for wave in _balanced_waves(osts, nodes, wave_size):
                    batch = RequestBatch(arrival=0.0, ost=osts[wave], nbytes=node_bytes)
                    done = solve(machine, batch, background=background, large_writes=True)
                    wall += float(done.max())
                walls.append(wall)
            mean = float(np.mean(walls))
            row = {
                "policy": policy,
                "ranks": ranks,
                "writers": nodes,
                "osts": machine.ost_count,
                "wave_size": wave_size if policy == "scheduled" else nodes,
                "io_time_mean_s": mean,
                "io_time_max_s": float(np.max(walls)),
                "throughput_gb_s": node_bytes * nodes / mean / GB,
                "hidden_by_compute": bool(np.max(walls) <= 120.0),
            }
            rows.append((index, row))
    return replication_table(
        rows, ("policy", "ranks", "writers", "osts", "wave_size"), replications, seed
    )


@pytest.mark.parametrize("interfered", [False, True])
@pytest.mark.parametrize("replications", [1, 3])
def test_scheduling_stack_equals_serial_loop(replications, interfered):
    machine = KRAKEN.with_overrides(ost_count=96)
    interference = DEFAULT_INTERFERENCE if interfered else None
    kwargs = dict(seed=3, replications=replications, interference=interference)
    got = run_scheduling(2304, machine=machine, **kwargs)
    assert _rows(got) == _rows(_serial_scheduling(machine, 2304, **kwargs))


def test_insitu_scaling_replicated():
    baseline = run_insitu_scaling(scales=(92, 184), seed=0)
    assert _rows(run_insitu_scaling(scales=(92, 184), seed=0, replications=1)) == _rows(baseline)
    table = run_insitu_scaling(scales=(92, 184), seed=0, replications=3)
    row = table.where(cores=184)[0]
    assert row["replications"] == 3
    assert "insitu_mean_s_ci_hi" in row


def test_app_interference_replicated_bit_identical_across_jobs():
    kwargs = dict(
        ranks=96,
        iterations=2,
        data_per_rank=8 * MB,
        compute_time=30.0,
        seed=5,
        intensities=("off", "heavy"),
        replications=2,
    )
    baseline = run_app_interference(
        ranks=96,
        iterations=2,
        data_per_rank=8 * MB,
        compute_time=30.0,
        seed=5,
        intensities=("off", "heavy"),
    )
    single = run_app_interference(
        ranks=96,
        iterations=2,
        data_per_rank=8 * MB,
        compute_time=30.0,
        seed=5,
        intensities=("off", "heavy"),
        replications=1,
    )
    assert _rows(baseline) == _rows(single)
    row = run_app_interference(**kwargs).where(intensity="heavy", approach="damaris")[0]
    assert row["replications"] == 2
    assert "io_mean_s_ci_hi" in row


def test_every_runner_rejects_non_positive_replications():
    import pytest

    with pytest.raises(ValueError, match="replications"):
        run_variability(**_KW, replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_throughput(**_KW, replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_weak_scaling(scales=[144], replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_spare_time(scales=[144], replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_scheduling(ranks=2304, machine=KRAKEN.with_overrides(ost_count=96), replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_insitu_scaling(scales=(92,), replications=0)
    with pytest.raises(ValueError, match="replications"):
        run_app_interference(ranks=96, replications=0)


_RANKED = [run_variability, run_throughput, run_scheduling, run_app_interference]
_LADDERS = [run_weak_scaling, run_spare_time, run_insitu_scaling]
_COMPUTE_TIMED = [
    functools.partial(run_weak_scaling, scales=(192,)),
    functools.partial(run_variability, ranks=192),
    functools.partial(run_throughput, ranks=192),
    functools.partial(run_spare_time, scales=(192,)),
    functools.partial(run_scheduling, ranks=192),
    run_insitu_backpressure,
    functools.partial(run_app_interference, ranks=192),
]


@pytest.mark.parametrize("ranks", [0, -192])
@pytest.mark.parametrize("runner", _RANKED, ids=lambda runner: runner.__name__)
def test_runners_reject_a_rank_count_below_one(runner, ranks):
    # run_throughput(ranks=0) used to fail inside RequestBatch, naming
    # neither the argument nor the runner.
    with pytest.raises(ValueError, match=rf"^ranks must be >= 1, got {ranks}$"):
        runner(ranks=ranks)


@pytest.mark.parametrize("runner", _LADDERS, ids=lambda runner: runner.__name__)
def test_runners_reject_a_ladder_rung_below_one(runner):
    with pytest.raises(ValueError, match=r"^scales\[1\] must be >= 1, got 0$"):
        runner(scales=(192, 0))


@pytest.mark.parametrize("runner", _LADDERS, ids=lambda runner: runner.__name__)
def test_ladder_runners_read_scales_from_any_iterable(runner):
    # E4 and E7 used to exhaust a generator while validating it and then
    # return an empty table.
    assert len(runner(scales=(rung for rung in (192,)), iterations=1)) > 0
    with pytest.raises(ValueError, match=r"^scales must not be empty$"):
        runner(scales=iter(()))


@pytest.mark.parametrize("compute_time", [-5.0, float("nan"), float("inf")])
def test_runners_reject_a_negative_or_non_finite_compute_time(compute_time):
    # run_spare_time(compute_time=-5.0) used to print the compute_time=0.0
    # table, with an idle fraction of 0.
    for runner in _COMPUTE_TIMED:
        with pytest.raises(ValueError, match=r"^compute_time must be finite and >= 0, got "):
            runner(compute_time=compute_time)
    # Zero stays accepted.
    assert run_spare_time(scales=(576,), iterations=1, compute_time=0.0)[0]["idle_fraction"] == 0


_ITERATED = [
    functools.partial(run_spare_time, scales=(192,)),
    functools.partial(run_scheduling, ranks=192),
    functools.partial(run_insitu_scaling, scales=(92,)),
    run_insitu_backpressure,
]


@pytest.mark.parametrize("iterations", [0, -1])
@pytest.mark.parametrize(
    "runner", _ITERATED, ids=["spare_time", "scheduling", "insitu_scaling", "insitu_backpressure"]
)
def test_runners_reject_an_iteration_count_below_one(runner, iterations):
    # run_spare_time and run_insitu_scaling used to return NaN rows,
    # run_insitu_backpressure a negative ideal compute time, and
    # run_scheduling a bare "zero-size array" error.
    with pytest.raises(ValueError, match=rf"^iterations must be >= 1, got {iterations}$"):
        runner(iterations=iterations)


@pytest.mark.parametrize("wave_size", [0, -3])
def test_scheduling_rejects_a_wave_size_below_one(wave_size):
    # wave_size=0 used to fail with a bare "range() arg 3 must not be zero".
    with pytest.raises(ValueError, match=rf"^wave_size must be >= 1, got {wave_size}$"):
        run_scheduling(ranks=192, wave_size=wave_size)


def test_app_interference_rejects_a_zero_compute_time():
    # Its arrivals spread over the compute phase; zero used to fail in the
    # arrival sampler with a message naming no argument.
    with pytest.raises(ValueError, match=r"^compute_time must be > 0, got 0.0$"):
        run_app_interference(ranks=192, compute_time=0.0)


_EMPTY_SELECTIONS = [
    (run_weak_scaling, dict(scales=[]), "scales"),
    (run_spare_time, dict(scales=[]), "scales"),
    (run_insitu_scaling, dict(scales=()), "scales"),
    (run_weak_scaling, dict(scales=(192,), approaches=[]), "approaches"),
    (run_variability, dict(ranks=192, approaches=[]), "approaches"),
    (run_throughput, dict(ranks=192, approaches=()), "approaches"),
    (run_app_interference, dict(ranks=192, approaches=[]), "approaches"),
    (run_app_interference, dict(ranks=192, intensities=()), "intensities"),
]


@pytest.mark.parametrize(
    ("runner", "kwargs", "name"),
    _EMPTY_SELECTIONS,
    ids=[f"{runner.__name__}-{name}" for runner, _, name in _EMPTY_SELECTIONS],
)
def test_runners_reject_an_empty_selection(runner, kwargs, name):
    # Each used to return an empty table.
    with pytest.raises(ValueError, match=rf"^{name} must not be empty$"):
        runner(**kwargs)
    # approaches=None is no selection: it still means the paper's three.
    if name == "approaches":
        table = runner(**{**kwargs, name: None, "iterations": 1})
        assert {row["approach"] for row in table} == set(_PAPER_APPROACHES)
