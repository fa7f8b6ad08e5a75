"""Unit tests for the arrival-process registry and the Workload spec."""

import numpy as np
import pytest

from repro.util import MB
from repro.workloads import (
    BurstArrivals,
    Jittered,
    Periodic,
    PoissonArrivals,
    Workload,
    arrival_process_names,
    register_arrival_process,
    resolve_arrival_process,
    workload_rng,
)

PERIOD = 120.0


def _rng(seed=0):
    return np.random.default_rng(seed)


# -- arrival processes ----------------------------------------------------


def test_registry_contains_the_four_processes():
    assert set(arrival_process_names()) == {"periodic", "jittered", "poisson", "burst"}


def test_resolve_by_name_and_instance():
    periodic = resolve_arrival_process("periodic")
    assert isinstance(periodic, Periodic)
    assert resolve_arrival_process("PERIODIC") is periodic
    assert resolve_arrival_process(periodic) is periodic
    with pytest.raises(ValueError):
        resolve_arrival_process("fractal")


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register_arrival_process(Periodic())


def test_periodic_is_the_historical_all_zeros():
    out = Periodic().sample(_rng(), 64, PERIOD)
    assert out.shape == (64,)
    assert not out.any()


def test_jittered_stays_within_spread():
    process = Jittered(spread=0.1)
    out = process.sample(_rng(), 1000, PERIOD)
    assert out.min() >= 0.0
    assert out.max() < 0.1 * PERIOD
    # Genuinely spread, not degenerate.
    assert out.std() > 0.0


def test_poisson_is_sorted_within_window():
    process = PoissonArrivals(window=0.5)
    out = process.sample(_rng(), 500, PERIOD)
    assert out.shape == (500,)
    assert (np.diff(out) >= 0).all()
    assert out.min() >= 0.0
    assert out.max() < 0.5 * PERIOD


def test_burst_concentrates_arrivals():
    # Thinning against the inhomogeneous rate piles arrivals into the
    # burst windows: with a 25:1 rate ratio over two 5%-wide bursts, far
    # more than 10% of arrivals must land inside them.
    process = BurstArrivals(window=0.5, bursts=2, burst_width=0.05, base_rate=1.0, burst_rate=25.0)
    rng = _rng(3)
    horizon = 0.5 * PERIOD
    # Re-derive the burst centers the sample will draw (the stream's first
    # two uniforms) by replaying an identically seeded generator.
    centers = np.random.default_rng(3).uniform(0.0, horizon, 2)
    out = process.sample(rng, 2000, PERIOD)
    assert out.shape == (2000,)
    assert (np.diff(out) >= 0).all()
    assert out.min() >= 0.0 and out.max() < horizon
    half = 0.5 * 0.05 * horizon
    inside = (np.abs(out[:, None] - centers[None, :]) <= half).any(axis=1).mean()
    assert inside > 0.3, inside


def _broadcast_rate(process, t, horizon, centers):
    """The burst rate from the full (points x bursts) distance matrix."""
    half = 0.5 * process.burst_width * horizon
    inside = (np.abs(t[:, None] - centers[None, :]) <= half).any(axis=1)
    return np.where(inside, process.burst_rate, process.base_rate)


@pytest.mark.parametrize("bursts", [1, 5])
def test_burst_rate_equals_the_broadcast_formula(bursts):
    process = BurstArrivals(bursts=bursts, burst_width=0.1)
    horizon = process.window * PERIOD
    half = 0.5 * process.burst_width * horizon
    rng = _rng(bursts)
    random_centers = rng.uniform(0.0, horizon, bursts)
    # Overlapping bursts: every centre within one half-width of the first.
    overlapping = random_centers[0] + rng.uniform(-half, half, bursts)
    for centers in (random_centers, overlapping):
        # Random points, plus every window's exact edges and their neighbours.
        edges = np.concatenate([centers - half, centers + half])
        t = np.concatenate(
            [
                rng.uniform(0.0, horizon, 4096),
                edges,
                np.nextafter(edges, np.inf),
                np.nextafter(edges, -np.inf),
            ]
        )
        want = _broadcast_rate(process, t, horizon, centers)
        np.testing.assert_array_equal(process._rate(t, horizon, centers), want)
        assert (want == process.burst_rate).any() and (want == process.base_rate).any()


def test_burst_is_deterministic_per_stream():
    process = resolve_arrival_process("burst")
    a = process.sample(_rng(11), 100, PERIOD)
    b = process.sample(_rng(11), 100, PERIOD)
    np.testing.assert_array_equal(a, b)
    c = process.sample(_rng(12), 100, PERIOD)
    assert not np.array_equal(a, c)


def test_sample_validates_inputs():
    with pytest.raises(ValueError):
        Periodic().sample(_rng(), 4, 0.0)
    with pytest.raises(ValueError):
        Periodic().sample(_rng(), -1, PERIOD)


def test_process_parameters_validated():
    with pytest.raises(ValueError):
        Jittered(spread=1.5)
    with pytest.raises(ValueError):
        PoissonArrivals(window=0.0)
    with pytest.raises(ValueError):
        BurstArrivals(base_rate=0.0)
    with pytest.raises(ValueError):
        BurstArrivals(burst_rate=0.5, base_rate=1.0)


# -- the Workload spec ----------------------------------------------------


def test_workload_defaults_and_validation():
    w = Workload(app="sim", ranks=1152)
    assert w.arrival == "periodic"
    assert w.approach == "damaris"
    assert w.data_per_rank == 45 * MB
    with pytest.raises(ValueError):
        Workload(app="", ranks=1)
    with pytest.raises(ValueError):
        Workload(app="sim", ranks=0)
    with pytest.raises(ValueError):
        Workload(app="sim", ranks=1, arrival="fractal")
    with pytest.raises(ValueError):
        Workload(app="sim", ranks=1, approach="quantum-io")


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (
            lambda: Workload(app="sim", ranks=2.5),
            r"workload ranks must be an integer >= 1, got 2.5",
        ),
        (
            lambda: Workload(app="sim", ranks=1, data_per_rank=float("nan")),
            r"workload data_per_rank must be finite and > 0, got nan",
        ),
        (
            lambda: Workload(app="sim", ranks=1, data_per_rank=float("inf")),
            r"workload data_per_rank must be finite and > 0, got inf",
        ),
        (
            lambda: Workload.parse("app=sim,ranks=abc"),
            r"workload field ranks must be an integer, got 'abc'",
        ),
        (
            lambda: Workload.parse("app=sim,ranks=64,data_mb=lots"),
            r"workload field data_mb must be a number, got 'lots'",
        ),
    ],
    ids=["fractional-ranks", "nan-data", "inf-data", "parse-ranks", "parse-data"],
)
def test_workload_rejects_invalid_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_workload_parse_round_trips():
    spec = "app=background,ranks=1152,data_mb=45,arrival=burst,approach=file-per-process"
    w = Workload.parse(spec)
    assert w == Workload(
        app="background",
        ranks=1152,
        data_per_rank=45 * MB,
        arrival="burst",
        approach="file-per-process",
    )
    assert Workload.parse(w.spec()) == w


def test_workload_spec_round_trips_non_round_volumes():
    w = Workload(app="a", ranks=4, data_per_rank=45.6789123 * MB)
    assert Workload.parse(w.spec()) == w


def test_workload_parse_defaults_and_errors():
    w = Workload.parse("app=sim,ranks=64")
    assert w.arrival == "periodic" and w.approach == "damaris"
    with pytest.raises(ValueError):
        Workload.parse("ranks=64")  # app missing
    with pytest.raises(ValueError):
        Workload.parse("app=sim,ranks=64,color=red")
    with pytest.raises(ValueError):
        Workload.parse("app=sim,ranks")


def test_workload_with_overrides():
    w = Workload(app="bg", ranks=1152).with_overrides(ranks=288)
    assert w.ranks == 288
    assert w.app == "bg"


def test_workload_rng_is_name_keyed():
    w = Workload(app="sim", ranks=576, arrival="burst", approach="damaris")
    twin = Workload(app="sim", ranks=576, arrival="burst", approach="damaris")
    a = workload_rng(7, w).random(4)
    b = workload_rng(7, twin).random(4)
    np.testing.assert_array_equal(a, b)
    # Any identity field shifts the stream.
    for other in (
        w.with_overrides(app="other"),
        w.with_overrides(arrival="poisson"),
        w.with_overrides(ranks=1152),
    ):
        assert not np.array_equal(a, workload_rng(7, other).random(4))
