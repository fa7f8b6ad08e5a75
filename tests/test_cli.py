"""Tests for the ``python -m repro`` command line."""

import argparse
import csv
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro.experiments
from repro.cli import _build_parser, main
from repro.engine import backend_names, default_backend
from repro.experiments import EXPERIMENTS
from repro.scenario import KNOBS


def test_machines_lists_registry(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    for name in ("kraken", "grid5000", "exascale"):
        assert name in out


def test_approaches_lists_registry(capsys):
    assert main(["approaches"]) == 0
    out = capsys.readouterr().out
    for name in ("file-per-process", "collective", "damaris", "dedicated-nodes"):
        assert name in out


def test_run_e3_text(capsys):
    assert main(["run", "e3", "--check"]) == 0
    out = capsys.readouterr().out
    assert "damaris" in out
    assert "throughput_gb_s" in out


def test_run_e3_csv_parses(capsys):
    assert main(["run", "e3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["approach"] for row in rows} == {
        "file-per-process",
        "collective",
        "damaris",
    }
    assert all(float(row["throughput_gb_s"]) > 0 for row in rows)


def test_run_e1_json_small_ladder(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LADDER", "192,384")
    assert main(["run", "e1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["ranks"] for row in rows} == {192, 384}
    assert all(isinstance(row["io_phase_mean_s"], float) for row in rows)


def test_run_e7_prints_both_tables(capsys):
    assert main(["run", "e7"]) == 0
    out = capsys.readouterr().out
    assert "# insitu_scaling" in out
    assert "# insitu_backpressure" in out


def test_run_e8_writes_artifacts(capsys, tmp_path):
    assert main(["run", "e8", "--output-dir", str(tmp_path), "--check"]) == 0
    assert (tmp_path / "cm1_damaris.py").exists()
    assert (tmp_path / "cm1.xml").exists()


def test_run_e8_defaults_to_throwaway_dir(capsys):
    # Without --output-dir the artifacts land in a temp dir that is gone
    # by the time the command returns; the table must still print.
    assert main(["run", "e8"]) == 0
    assert "code_lines" in capsys.readouterr().out


def test_workloads_lists_arrival_processes(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("periodic", "jittered", "poisson", "burst"):
        assert name in out
    assert "REPRO_WORKLOAD" in out


def test_run_e9_json(capsys):
    assert main(["run", "e9", "--format", "json", "--check"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["intensity"] for row in rows} == {"off", "light", "heavy"}
    damaris = [row["io_mean_s"] for row in rows if row["approach"] == "damaris"]
    assert max(damaris) < 0.5


def test_run_e9_workload_and_trace(capsys, tmp_path):
    assert (
        main(
            [
                "run",
                "e9",
                "--workload",
                "app=bg,ranks=96,arrival=poisson,approach=file-per-process",
                "--trace",
                str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "bg_ranks" in out
    assert (tmp_path / "e9-heavy-damaris.jsonl").exists()


def test_run_with_machine_and_backend(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LADDER", "192")
    assert main(["run", "e2", "--machine", "kraken", "--backend", "reference"]) == 0
    assert "damaris" in capsys.readouterr().out


def test_run_seed_changes_output(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LADDER", "192")
    main(["run", "e2", "--seed", "1"])
    first = capsys.readouterr().out
    main(["run", "e2", "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "e99"])


def test_run_e2_replications_emits_ci_columns(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LADDER", "192")
    assert main(["run", "e2", "--replications", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(row["replications"] == 3 for row in rows)
    for suffix in ("", "_std", "_cv", "_p95", "_ci_lo", "_ci_hi"):
        assert all(f"io_mean_s{suffix}" in row for row in rows), suffix
    assert all(row["io_mean_s_ci_lo"] <= row["io_mean_s"] <= row["io_mean_s_ci_hi"] for row in rows)


def test_run_e2_replications_env_and_flag_agree(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LADDER", "192")
    assert main(["run", "e2", "--replications", "2", "--format", "csv"]) == 0
    by_flag = capsys.readouterr().out
    monkeypatch.setenv("REPRO_REPLICATIONS", "2")
    assert main(["run", "e2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == by_flag


def test_run_rejects_a_non_positive_payload_by_name(capsys):
    # Used to surface as a ZeroDivisionError deep inside e3.
    with pytest.raises(SystemExit) as exit_:
        main(["run", "e3", "--data-per-rank-mb", "0"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --data-per-rank-mb: invalid value '0': data_per_rank must be finite" in err


def test_run_leaves_the_callers_backend_in_place(capsys):
    assert default_backend() == "vectorized"
    assert main(["run", "e7", "--backend", "reference"]) == 0
    assert "insitu_scaling" in capsys.readouterr().out
    assert default_backend() == "vectorized"


@pytest.mark.parametrize(
    ("flag", "text"),
    [
        ("--seed", "-1"),
        ("--seed", "abc"),
        ("--replications", "0"),
        ("--data-per-rank-mb", "-5"),
        ("--data-per-rank-mb", "abc"),
        ("--machine", "summit"),
        ("--backend", "gpu"),
        ("--workload", "app=bg,ranks=0"),
    ],
)
def test_run_rejects_a_bad_flag_value_as_a_usage_error(flag, text):
    # One at a time in a fresh process: no traceback, the flag and its
    # text on stderr, argparse's usage-error status.
    done = _fresh_python("-m", "repro", "run", "e9", flag, text, check=False)
    assert done.returncode == 2
    assert f"argument {flag}: invalid value {text!r}" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_startup_loads_no_process_pool_machinery():
    # Every `python -m repro` run pays for what `import repro.cli` loads;
    # nothing in the package starts worker processes.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys, repro, repro.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def _fresh_python(*args: str, check: bool = True) -> subprocess.CompletedProcess[str]:
    """``python *args`` in a fresh interpreter that imports this checkout."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=check
    )


def _loaded(after: str, packages: tuple[str, ...]) -> list[str]:
    """Modules of ``packages`` a fresh interpreter holds after running ``after``."""
    probe = (
        f"{after}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({packages!r}))))"
    )
    return json.loads(_fresh_python("-c", probe).stdout)


def test_startup_loads_no_subcommand_packages():
    # `run` never uses serve, bench or analyze; they load when dispatched.
    packages = ("repro.bench", "repro.serve", "repro.analyze")
    assert _loaded("import repro, repro.cli", packages) == []


@pytest.mark.parametrize("experiment", ["e1", "e5"])
def test_run_loads_no_service_linter_or_bench_suite(experiment):
    # E5 times through repro.bench.timing; that must not pull in the suite,
    # which imports the service.
    run = (
        "import contextlib, io\nfrom repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['run', '{experiment}', '--format', 'json'])"
    )
    packages = ("repro.serve", "repro.analyze", "repro.bench.suite")
    assert _loaded(run, packages) == []


def test_process_entry_freezes_the_import_time_heap(capsys):
    # The real __main__, as `python -m repro` runs it: the heap its imports
    # left is frozen before main runs, and the output is main's own.
    probe = (
        "import gc, runpy, sys\n"
        "sys.argv = ['repro', 'machines']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    print(done.code, gc.get_freeze_count(), file=sys.stderr)\n"
    )
    child = _fresh_python("-c", probe)
    status, frozen = child.stderr.splitlines()[-1].split()
    assert status == "0"
    assert int(frozen) >= 10_000
    assert main(["machines"]) == 0
    assert child.stdout == capsys.readouterr().out


def test_main_leaves_the_callers_heap_unfrozen(capsys):
    # pytest, the output golden and perfbench's traced worker call main
    # in-process; only the process entry may freeze a heap.
    frozen = gc.get_freeze_count()
    assert main(["run", "e7", "--format", "json"]) == 0
    assert capsys.readouterr().out
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--list"],
        ["analyze", "--list-rules"],
        ["serve", "--cells", "2", "--passes", "2", "--ranks", "8"],
    ],
    ids=["bench", "analyze", "serve"],
)
def test_lazily_imported_subcommands_run_in_a_fresh_interpreter(argv):
    assert _fresh_python("-m", "repro", *argv).stdout


# -- the experiment table ---------------------------------------------------


def test_run_choices_are_the_experiment_table_ids():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    experiment = next(a for a in sub.choices["run"]._actions if a.dest == "experiment")
    assert list(experiment.choices) == sorted(EXPERIMENTS)


def test_run_help_lists_each_flag_with_its_knob_help():
    parser = _build_parser("run")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    text = " ".join(sub.choices["run"].format_help().split())
    flags = [knob for knob in KNOBS if knob.flag is not None]
    assert [knob.flag for knob in flags] == [
        "--machine",
        "--full-scale",
        "--seed",
        "--data-per-rank-mb",
        "--backend",
        "--replications",
        "--workload",
        "--trace",
    ]
    for knob in flags:
        assert knob.flag in text
        assert f"{knob.help} [{knob.variable}]" in text, knob.flag
    assert str(backend_names()) in text


def test_table_names_exported_runners_and_checks_only():
    exported = set(repro.experiments.__all__)
    runners = {spec.runner for specs in EXPERIMENTS.values() for spec in specs}
    checks = {spec.check for specs in EXPERIMENTS.values() for spec in specs} - {None}
    assert runners <= exported
    assert checks <= exported
    # A tracer wraps every exported run_* name as an experiment span, so
    # those names are exactly the table's runners.
    assert {name for name in exported if name.startswith("run_")} == runners


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_run_calls_each_table_runner_once_by_name(experiment, capsys, monkeypatch, tmp_path):
    # The table looks runners up on the package at call time, so a rebound
    # package attribute (here a counting wrapper) sees every call.
    calls: Counter[str] = Counter()
    for spec in EXPERIMENTS[experiment]:
        original = getattr(repro.experiments, spec.runner)

        def counting(*args, _name=spec.runner, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(repro.experiments, spec.runner, counting)
    monkeypatch.setenv("REPRO_LADDER", "192,384")
    assert main(["run", experiment, "--output-dir", str(tmp_path)]) == 0
    assert calls == Counter(spec.runner for spec in EXPERIMENTS[experiment])
    assert set(calls.values()) == {1}
