"""Packaging/CI sanity: pip resolution must match what CI actually runs.

The CI matrix exercises CPython 3.11–3.13 and the solvers lean on numpy
APIs from 1.24+; these checks pin ``pyproject.toml`` to those facts so a
stray edit cannot silently let pip resolve an environment the test
matrix never sees (or vice versa).
"""

from __future__ import annotations

import re
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _pyproject() -> dict:
    return tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))


def _ci_text() -> str:
    return (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")


def test_requires_python_floor_matches_ci_matrix():
    project = _pyproject()["project"]
    assert project["requires-python"] == ">=3.11"
    matrix = re.search(r"python-version:\s*\[([^\]]+)\]", _ci_text())
    assert matrix, "CI must declare a python-version matrix"
    versions = [v.strip().strip('"') for v in matrix.group(1).split(",")]
    assert versions, "empty python-version matrix"
    for version in versions:
        major, minor = (int(part) for part in version.split("."))
        assert (major, minor) >= (3, 11), f"CI runs {version} below requires-python"


def test_numpy_lower_bound_pinned():
    deps = _pyproject()["project"]["dependencies"]
    numpy_spec = next((d for d in deps if re.match(r"numpy\b", d)), None)
    assert numpy_spec is not None, "numpy must be a runtime dependency"
    assert ">=1.24" in numpy_spec.replace(" ", "")


def test_classifiers_advertise_supported_pythons():
    classifiers = _pyproject()["project"].get("classifiers", [])
    for minor in (11, 12, 13):
        assert f"Programming Language :: Python :: 3.{minor}" in classifiers


def test_py_typed_marker_ships():
    # The PEP 561 marker must exist and be listed in package-data, or an
    # installed wheel would silently drop the strict-typing guarantees.
    assert (REPO / "src" / "repro" / "py.typed").exists()
    package_data = _pyproject()["tool"]["setuptools"]["package-data"]
    assert "py.typed" in package_data.get("repro", [])


def test_mypy_strict_config_pinned():
    mypy = _pyproject()["tool"]["mypy"]
    assert mypy.get("strict") is True
    assert mypy.get("mypy_path") == "src"
    assert "mypy" in " ".join(_pyproject()["project"]["optional-dependencies"]["dev"])


def test_ruff_selects_bugbear_numpy_and_ruff_rules():
    select = _pyproject()["tool"]["ruff"]["lint"]["select"]
    for family in ("B", "NPY", "RUF"):
        assert family in select, f"ruff rule family {family} must stay enabled"


def test_dev_is_the_only_extra_and_ci_has_no_numba_axis():
    # Every solver is numpy-only: no optional speed extra, and no CI leg
    # that installs one.
    project = _pyproject()["project"]
    assert set(project["optional-dependencies"]) == {"dev"}
    assert not any(re.match(r"numba\b", d) for d in project["dependencies"])
    assert "numba" not in _ci_text()


def test_ci_has_static_analysis_job():
    ci = _ci_text()
    assert "static-analysis:" in ci, "the static-analysis gate job must exist"
    after = ci.split("static-analysis:")[1]
    next_job = re.search(r"\n  \w[\w-]*:\n", after)
    job = after[: next_job.start()] if next_job else after
    assert "python -m repro analyze" in job
    assert "mypy --strict src/repro" in job
    assert "ANALYZE.json" in job


def test_ci_has_serve_smoke_job():
    ci = _ci_text()
    assert "serve-smoke:" in ci, "the solve-service smoke job must exist"
    after = ci.split("serve-smoke:")[1]
    next_job = re.search(r"\n  \w[\w-]*:\n", after)
    job = after[: next_job.start()] if next_job else after
    assert "tests/test_serve.py" in job
    assert "python -m repro serve" in job
    assert "--compare-inline" in job
    assert "--workers" not in job


def test_ci_has_perf_gate_concurrency_and_pip_cache():
    ci = _ci_text()
    assert "bench-perf:" in ci, "the perf-regression gate job must exist"
    assert "benchmarks/baseline.json" in ci
    # The ratio guards must run strictly somewhere: bench-perf runs
    # test_perf_guard.py without the REPRO_PERF_STRICT=0 escape hatch.
    # Scope the check to the bench-perf job body: everything up to the
    # next top-level job key, wherever that job happens to be defined.
    after = ci.split("bench-perf:")[1]
    next_job = re.search(r"\n  \w[\w-]*:\n", after)
    bench_perf = after[: next_job.start()] if next_job else after
    assert "tests/test_perf_guard.py" in bench_perf
    assert 'REPRO_PERF_STRICT: "0"' not in bench_perf
    assert 'REPRO_PERF_STRICT: "1"' in bench_perf
    assert re.search(r"cancel-in-progress: \S", ci), "concurrency must cancel superseded runs"
    assert "refs/heads/main" in ci, "runs on main must never be cancelled"
    # Every setup-python step opts into pip caching.
    setups = ci.count("uses: actions/setup-python@")
    assert setups > 0 and ci.count("cache: pip") == setups


def test_ci_bench_smoke_runs_the_replicated_benchmarks():
    # The benchmarks read REPRO_REPLICATIONS through the experiment table;
    # one smoke step must take that branch at full scale.
    ci = _ci_text()
    after = ci.split("bench-smoke:")[1]
    next_job = re.search(r"\n  \w[\w-]*:\n", after)
    job = after[: next_job.start()] if next_job else after
    steps = [step for step in job.split("- name:") if 'REPRO_REPLICATIONS: "30"' in step]
    assert len(steps) == 1, "bench-smoke needs one step with 30 replications"
    assert "python -m pytest -x -q benchmarks/" in steps[0]
    assert 'REPRO_FULL_SCALE: "1"' in steps[0]


def test_pytest_fails_on_runtime_warnings():
    # numpy reports NaN reductions and divides by zero as RuntimeWarnings;
    # every pytest job must fail on them, not print them beside a pass.
    options = _pyproject()["tool"]["pytest"]["ini_options"]
    assert "error::RuntimeWarning" in options["filterwarnings"]
