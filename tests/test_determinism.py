"""Determinism of the seeded interference model: same seed, same table."""

from repro.experiments import (
    run_insitu_scaling,
    run_throughput,
    run_variability,
    run_weak_scaling,
)
from repro.experiments._driver import DEFAULT_INTERFERENCE
from repro.util import MB

_KW = {"ranks": 192, "iterations": 3, "data_per_rank": 45 * MB}


def _rows(table):
    return [row.as_dict() for row in table]


def test_variability_same_seed_same_table():
    a = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, seed=7)
    b = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, seed=7)
    assert _rows(a) == _rows(b)
    assert a.to_text() == b.to_text()


def test_variability_different_seed_differs():
    a = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, seed=7)
    b = run_variability(**_KW, interference=DEFAULT_INTERFERENCE, seed=8)
    assert _rows(a) != _rows(b)


def test_weak_scaling_is_deterministic():
    a = run_weak_scaling(scales=[144, 288], iterations=2, seed=3)
    b = run_weak_scaling(scales=[144, 288], iterations=2, seed=3)
    assert _rows(a) == _rows(b)


def test_throughput_is_deterministic_under_interference():
    a = run_throughput(ranks=192, interference=DEFAULT_INTERFERENCE, seed=5)
    b = run_throughput(ranks=192, interference=DEFAULT_INTERFERENCE, seed=5)
    assert _rows(a) == _rows(b)


def test_insitu_row_independent_of_ladder():
    # A rung is reproducible from (seed, cores) alone — running it as part
    # of a longer ladder must give the same row as running it on its own.
    full = run_insitu_scaling(scales=(92, 184, 368), seed=0)
    single = run_insitu_scaling(scales=(368,), seed=0)
    assert _rows(single) == _rows(full.where(cores=368))
