"""Unit tests for the frozen ScenarioConfig and its env parsing."""

import dataclasses

import pytest

from repro.engine import GRID5000, KRAKEN
from repro.scenario import DEFAULT_LADDER, FULL_SCALE_RANKS, ScenarioConfig
from repro.util import MB


def test_defaults():
    sc = ScenarioConfig()
    assert sc.machine is KRAKEN
    assert sc.ladder == DEFAULT_LADDER
    assert sc.data_per_rank == 45 * MB
    assert sc.seed == 0
    assert not sc.full_scale
    assert sc.jobs == 1


def test_frozen():
    sc = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.seed = 1  # type: ignore[misc]


def test_machine_name_resolves_in_post_init():
    sc = ScenarioConfig(machine="grid5000")
    assert sc.machine is GRID5000


def test_from_env_defaults():
    sc = ScenarioConfig.from_env({})
    assert sc == ScenarioConfig()


def test_from_env_full_scale_appends_paper_point():
    sc = ScenarioConfig.from_env({"REPRO_FULL_SCALE": "1"})
    assert sc.full_scale
    assert sc.ladder == DEFAULT_LADDER + (FULL_SCALE_RANKS,)
    off = ScenarioConfig.from_env({"REPRO_FULL_SCALE": "false"})
    assert not off.full_scale


def test_from_env_flag_spellings():
    # Regression: "off" and "n" used to parse as *truthy* because the
    # falsy list only knew 0/""/false/no.
    for value in ("off", "OFF", "n", "no", "false", "0", ""):
        assert not ScenarioConfig.from_env({"REPRO_FULL_SCALE": value}).full_scale, value
    for value in ("1", "true", "yes", "on"):
        assert ScenarioConfig.from_env({"REPRO_FULL_SCALE": value}).full_scale, value


def test_from_env_overrides():
    sc = ScenarioConfig.from_env(
        {
            "REPRO_MACHINE": "grid5000",
            "REPRO_LADDER": "64,128, 256",
            "REPRO_DATA_PER_RANK_MB": "10",
            "REPRO_SEED": "7",
            "REPRO_ENGINE": "reference",
        }
    )
    assert sc.machine is GRID5000
    assert sc.ladder == (64, 128, 256)
    assert sc.data_per_rank == 10 * MB
    assert sc.seed == 7
    assert sc.backend == "reference"


def test_ladder_override_beats_full_scale():
    sc = ScenarioConfig.from_env({"REPRO_FULL_SCALE": "1", "REPRO_LADDER": "576"})
    assert sc.ladder == (576,)
    assert sc.top_ranks == 576


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(backend="gpu")


def test_backend_name_case_insensitive():
    # The engine registry lowercases names; the scenario must accept the
    # same spellings (REPRO_ENGINE=Reference) instead of rejecting them.
    sc = ScenarioConfig.from_env({"REPRO_ENGINE": "Reference"})
    assert sc.backend == "reference"


def test_scenario_interference_reaches_the_runners():
    from repro.engine import Interference
    from repro.experiments import run_variability

    quiet = run_variability(ranks=192, iterations=2, seed=1)
    heavy = run_variability(
        ranks=192,
        iterations=2,
        seed=1,
        interference=Interference(background_streams=30.0, burst_probability=0.9),
    )
    fpp_quiet = quiet.where(approach="file-per-process")[0]
    fpp_heavy = heavy.where(approach="file-per-process")[0]
    assert fpp_heavy["io_mean_s"] > fpp_quiet["io_mean_s"]


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        ({"ladder": ()}, r"ladder must hold at least one rung"),
        ({"ladder": (576, 0)}, r"ladder\[1\] must be >= 1, got 0"),
        ({"ladder": (-96,)}, r"ladder\[0\] must be >= 1, got -96"),
        ({"data_per_rank": 0.0}, r"data_per_rank must be finite and > 0, got 0.0"),
        ({"data_per_rank": -5.0 * MB}, r"data_per_rank must be finite and > 0, got -5242880.0"),
        ({"data_per_rank": float("nan")}, r"data_per_rank must be finite and > 0, got nan"),
        ({"data_per_rank": float("inf")}, r"data_per_rank must be finite and > 0, got inf"),
    ],
    ids=[
        "empty-ladder",
        "zero-rung",
        "negative-rung",
        "zero-mb",
        "negative-mb",
        "nan-mb",
        "inf-mb",
    ],
)
def test_invalid_ladder_or_payload_rejected(overrides, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**overrides)


@pytest.mark.parametrize(
    ("env", "message"),
    [
        ({"REPRO_LADDER": "abc"}, r"REPRO_LADDER must be comma-separated integers, got 'abc'"),
        ({"REPRO_LADDER": "576,1.5"}, r"REPRO_LADDER must be .*, got '576,1.5'"),
        ({"REPRO_LADDER": ","}, r"ladder must hold at least one rung"),
        ({"REPRO_LADDER": "0"}, r"ladder\[0\] must be >= 1, got 0"),
        ({"REPRO_LADDER": "576,-96"}, r"ladder\[1\] must be >= 1, got -96"),
        ({"REPRO_DATA_PER_RANK_MB": "abc"}, r"REPRO_DATA_PER_RANK_MB must be a number, got 'abc'"),
        ({"REPRO_DATA_PER_RANK_MB": "0"}, r"data_per_rank must be finite and > 0, got 0.0"),
        ({"REPRO_DATA_PER_RANK_MB": "-5"}, r"data_per_rank must be finite and > 0, got -5242880.0"),
        ({"REPRO_DATA_PER_RANK_MB": "nan"}, r"data_per_rank must be finite and > 0, got nan"),
    ],
    ids=[
        "ladder-text",
        "ladder-float",
        "ladder-empty",
        "ladder-zero",
        "ladder-negative",
        "mb-text",
        "mb-zero",
        "mb-negative",
        "mb-nan",
    ],
)
def test_from_env_rejects_bad_ladder_or_payload(env, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig.from_env(env)


@pytest.mark.parametrize(
    ("name", "raw", "message"),
    [
        ("REPRO_REPLICATIONS", "abc", r"REPRO_REPLICATIONS must be an integer >= 1, got 'abc'"),
        ("REPRO_SEED", "abc", r"REPRO_SEED must be an integer >= 0, got 'abc'"),
        ("REPRO_SEED", "-1", r"REPRO_SEED must be >= 0, got -1"),
    ],
    ids=["replications", "seed", "negative-seed"],
)
def test_integer_env_knob_errors_name_the_variable(name, raw, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig.from_env({name: raw})


def test_serial_solve_and_inline_serve_are_constants():
    # Not fields: no environment or constructor argument can set them.
    env = {
        "REPRO_JOBS": "4",
        "REPRO_SOLVE_SHARDS": "4",
        "REPRO_SERVE": "1",
        "REPRO_SERVE_WORKERS": "4",
    }
    sc = ScenarioConfig.from_env(env)
    assert (sc.jobs, sc.solve_shards, sc.serve, sc.serve_workers) == (1, 1, False, 1)
    for name, value in (("jobs", 2), ("solve_shards", 2), ("serve", True), ("serve_workers", 2)):
        with pytest.raises(TypeError):
            ScenarioConfig(**{name: value})


def test_from_env_workload_and_trace():
    from repro.workloads import Workload

    sc = ScenarioConfig.from_env(
        {
            "REPRO_WORKLOAD": "app=bg,ranks=288,data_mb=10,arrival=burst,approach=file-per-process",
            "REPRO_TRACE": "traces/e9",
        }
    )
    assert sc.workload == Workload(
        app="bg",
        ranks=288,
        data_per_rank=10 * MB,
        arrival="burst",
        approach="file-per-process",
    )
    assert sc.trace == "traces/e9"
    assert ScenarioConfig.from_env({}).workload is None
    assert ScenarioConfig.from_env({}).trace is None
    with pytest.raises(ValueError):
        ScenarioConfig.from_env({"REPRO_WORKLOAD": "app=bg,ranks=288,arrival=fractal"})


def test_with_overrides():
    sc = ScenarioConfig().with_overrides(seed=3, machine="grid5000")
    assert sc.seed == 3
    assert sc.machine is GRID5000
