"""Tests for the ``repro.bench`` subsystem and its CLI subcommand."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    Timing,
    compare_documents,
    default_results_path,
    load_results,
    measure,
    resolve_benchmark,
    result_record,
    results_document,
    select_benchmarks,
    validate_document,
    write_results,
)
from repro.bench.registry import KINDS
from repro.bench.suite import SUITE
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent

# The fastest benchmarks, the twin solvers; CLI tests filter down to
# these so the suite stays quick.
FAST_FILTER = ["micro.solve."]


# ------------------------------------------------------------------ suite


def test_registry_covers_required_suite():
    names = [b.name for b in SUITE]
    micro = [b for b in SUITE if b.kind == "micro"]
    macro = [b for b in SUITE if b.kind == "macro"]
    assert len(micro) >= 6
    assert len(macro) >= 4
    # Every engine speedup claim ships with both of its sides.
    for pair in (
        ("micro.solve.vectorized", "micro.solve.reference"),
        ("micro.solve_many.stacked", "micro.solve_many.serial"),
        ("micro.replication.driver_batched", "micro.replication.driver_serial"),
    ):
        assert set(pair) <= set(names)
    assert {"macro.e1.weak_scaling", "macro.e2.replicated", "macro.e3.throughput"} <= set(names)


def test_registry_listing_sorted_micro_first():
    benches = select_benchmarks()
    kinds = [b.kind for b in benches]
    assert kinds == sorted(kinds, key=("micro", "macro").index)
    micro_names = [b.name for b in benches if b.kind == "micro"]
    assert micro_names == sorted(micro_names)


def test_select_benchmarks_filters_by_substring_and_kind():
    solvers = select_benchmarks("SOLVE.")  # case-insensitive
    assert [b.name for b in solvers] == ["micro.solve.reference", "micro.solve.vectorized"]
    assert select_benchmarks("no-such-benchmark") == []
    # A kind is the first part of the name, so a filter selects it.
    macro = select_benchmarks("macro.")
    assert macro == [b for b in SUITE if b.kind == "macro"]
    assert select_benchmarks(["micro.", "macro."]) == list(SUITE)


def test_resolve_unknown_benchmark_names_known_ones():
    with pytest.raises(KeyError, match="micro.solve.vectorized"):
        resolve_benchmark("micro.solve.quantum")


def test_suite_names_are_unique_kinded_and_described():
    names = [b.name for b in SUITE]
    assert len(set(names)) == len(names)
    for bench in SUITE:
        assert bench.name.split(".")[0] in KINDS
        assert bench.kind == bench.name.split(".")[0]
        assert bench.description.strip()


def test_committed_records_load_and_the_baseline_holds_exactly_the_suite():
    names = {b.name for b in SUITE}
    baseline = load_results(REPO / "benchmarks" / "baseline.json")
    assert [r["name"] for r in baseline["benchmarks"]] == [b.name for b in SUITE]
    # The history records past suites: its first two documents keep the
    # benchmarks since deleted, and none names one the suite never had.
    deleted = {
        "micro.arrivals.poisson",
        "micro.merge_batches",
        "micro.solve_staggered.compiled",
        "micro.solve_staggered.reference",
        "micro.solve_staggered.vectorized",
        "macro.exascale.staggered",
    }
    history = sorted((REPO / "benchmarks" / "history").glob("BENCH_*.json"))
    first_two = {"BENCH_373bf289736f", "BENCH_89cb9c38de2d"}
    assert first_two <= {path.stem for path in history}
    for path in history:
        recorded = {r["name"] for r in load_results(path)["benchmarks"]}
        assert recorded - deleted <= names
        if path.stem in first_two:
            assert deleted <= recorded
    # Every benchmark a perf guard times is in the suite.
    guards = (REPO / "tests" / "test_perf_guard.py").read_text(encoding="utf-8")
    timed = re.findall(r'_best\("([^"]+)"', guards)
    assert len(timed) == 8
    for name in timed:
        assert resolve_benchmark(name).name == name


# ----------------------------------------------------------------- timing


def test_measure_reduces_rounds():
    counter = {"runs": 0}

    def tick():
        counter["runs"] += 1

    timing = measure(tick, repeats=4, warmup=2)
    assert counter["runs"] == 6
    assert timing.repeats == 4 and timing.warmup == 2
    assert 0 <= timing.best <= timing.median <= max(timing.times)
    assert timing.stddev >= 0


def test_measure_validates_arguments():
    with pytest.raises(ValueError, match="repeats"):
        measure(lambda: None, repeats=0)
    with pytest.raises(ValueError, match="warmup"):
        measure(lambda: None, warmup=-1)
    with pytest.raises(ValueError, match="at least one"):
        Timing(times=())


def test_timing_dict_round_trip():
    timing = Timing(times=(0.25, 0.5, 0.75), warmup=1)
    data = timing.as_dict()
    assert data["best_s"] == pytest.approx(0.25)
    assert data["median_s"] == pytest.approx(0.5)
    assert json.loads(json.dumps(data)) == data


# ---------------------------------------------------------------- results


def _document_for(names=("micro.arrivals.burst",), best=0.5):
    records = []
    for name in names:
        bench = resolve_benchmark(name)
        records.append(result_record(bench, Timing(times=(best, best * 2), warmup=1), work=100.0))
    return results_document(records, sha="deadbeef" * 5)


def test_results_document_schema_round_trip(tmp_path):
    doc = _document_for(("micro.arrivals.burst", "macro.e3.throughput"))
    path = write_results(doc, tmp_path / "out.json")
    loaded = load_results(path)
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert loaded["git_sha"] == "deadbeef" * 5
    assert {"platform", "python", "numpy", "cpu_count"} <= set(loaded["fingerprint"])
    by_name = {r["name"]: r for r in loaded["benchmarks"]}
    record = by_name["micro.arrivals.burst"]
    assert record["kind"] == "micro" and record["units"] == "arrivals"
    assert record["params"]["process"] == "burst"
    assert record["throughput_per_s"] == pytest.approx(100.0 / 0.5)
    # micro records sort before macro ones.
    assert [r["kind"] for r in loaded["benchmarks"]] == ["micro", "macro"]


def test_validate_document_rejects_corruption():
    good = _document_for()
    # A hand-edited baseline with a stringly-typed best_s must be a clean
    # ValueError (the CLI turns it into exit 2), never a TypeError.
    stringly = json.loads(json.dumps(good))
    stringly["benchmarks"][0]["timing"]["best_s"] = "0.5"
    no_rounds = json.loads(json.dumps(good))
    no_rounds["benchmarks"][0]["timing"]["seconds"] = []
    for corrupt, match in (
        ({**good, "schema_version": 99}, "schema_version"),
        ({k: v for k, v in good.items() if k != "git_sha"}, "git_sha"),
        ({**good, "benchmarks": [{"name": "x"}]}, "missing key"),
        ({**good, "benchmarks": good["benchmarks"] * 2}, "duplicate"),
        (stringly, "positive number"),
        (no_rounds, "no rounds"),
        ("not a mapping", "JSON object"),
    ):
        with pytest.raises(ValueError, match=match):
            validate_document(corrupt)


@pytest.mark.parametrize("key, value", [("best_s", math.nan), ("seconds", math.inf)])
def test_a_non_finite_baseline_time_is_rejected(capsys, tmp_path, key, value):
    # NaN compares false and inf reads -100%: either would pass every gate.
    doc = _document_for(("micro.solve.vectorized",))
    timing = doc["benchmarks"][0]["timing"]
    timing[key] = value if key == "best_s" else [value, *timing[key][1:]]
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="micro.solve.vectorized.*finite positive"):
        load_results(path)
    assert main(_bench_cli("--baseline", str(path))) == 2
    assert "cannot load baseline" in capsys.readouterr().err


def test_default_results_path_uses_short_sha():
    assert default_results_path("0123456789abcdef").name == "BENCH_0123456789ab.json"


def test_compare_documents_flags_regressions_over_intersection():
    baseline = _document_for(("micro.arrivals.burst", "micro.solve.vectorized"), best=0.1)
    current = _document_for(("micro.arrivals.burst", "macro.e3.throughput"), best=0.2)
    comparisons, only_base, only_current = compare_documents(
        current, baseline, max_regression_pct=50.0
    )
    assert [c.name for c in comparisons] == ["micro.arrivals.burst"]
    assert only_base == ["micro.solve.vectorized"]
    assert only_current == ["macro.e3.throughput"]
    (cmp,) = comparisons
    assert cmp.change_pct == pytest.approx(100.0)
    assert cmp.regressed
    ok, _, _ = compare_documents(current, baseline, max_regression_pct=150.0)
    assert not ok[0].regressed
    with pytest.raises(ValueError, match="max_regression_pct"):
        compare_documents(current, baseline, max_regression_pct=-1.0)


# -------------------------------------------------------------------- CLI


def _bench_cli(*extra: str) -> list[str]:
    argv = ["bench"]
    for f in FAST_FILTER:
        argv += ["--filter", f]
    return argv + ["--repeats", "1", "--warmup", "0", *extra]


def test_cli_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    for bench in SUITE:
        assert bench.name in out


def test_cli_bench_list_prints_exactly_the_suite_micro_first(capsys):
    assert main(["bench", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{b.name} [{b.kind}, {b.units}]: {b.description}" for b in SUITE]
    kinds = [b.kind for b in SUITE]
    assert kinds == sorted(kinds, key=KINDS.index)


def test_cli_bench_list_respects_filter(capsys):
    assert main(["bench", "--list", "--filter", "arrivals"]) == 0
    out = capsys.readouterr().out
    assert "micro.arrivals.burst" in out
    assert "micro.solve.vectorized" not in out


def test_cli_bench_unmatched_filter_is_usage_error(capsys):
    assert main(["bench", "--filter", "no-such-benchmark"]) == 2
    # --list with the same dud filter must be just as loud, not empty-green.
    assert main(["bench", "--list", "--filter", "no-such-benchmark"]) == 2


def test_cli_bench_unwritable_json_is_usage_error_not_regression(capsys, tmp_path):
    missing_dir = tmp_path / "no-such-dir" / "out.json"
    assert main(_bench_cli("--json", str(missing_dir))) == 2
    assert "cannot write results" in capsys.readouterr().err


def test_cli_bench_writes_schema_valid_json(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    assert main(_bench_cli("--json", str(out_path))) == 0
    doc = load_results(out_path)
    names = {r["name"] for r in doc["benchmarks"]}
    assert names == {"micro.solve.vectorized", "micro.solve.reference"}
    assert all(r["timing"]["repeats"] == 1 for r in doc["benchmarks"])
    assert "results written" in capsys.readouterr().out


def test_cli_bench_baseline_pass_and_fail_exit_codes(capsys, tmp_path):
    baseline_path = tmp_path / "baseline.json"
    assert main(_bench_cli("--json", str(baseline_path))) == 0
    capsys.readouterr()

    # Same machine, generous gate: everything within threshold -> exit 0.
    assert main(_bench_cli("--baseline", str(baseline_path), "--max-regression", "400")) == 0
    assert "OK:" in capsys.readouterr().out

    # A baseline claiming 1000x faster rounds forces every comparison
    # over any sane threshold -> exit 1.
    doc = json.loads(baseline_path.read_text())
    for record in doc["benchmarks"]:
        timing = record["timing"]
        timing["seconds"] = [s / 1000.0 for s in timing["seconds"]]
        for key in ("best_s", "median_s", "mean_s"):
            timing[key] /= 1000.0
    baseline_path.write_text(json.dumps(doc))
    assert main(_bench_cli("--baseline", str(baseline_path), "--max-regression", "400")) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_bench_rejects_invalid_baseline(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    assert main(_bench_cli("--baseline", str(bad))) == 2
    assert "cannot load baseline" in capsys.readouterr().err
    assert main(_bench_cli("--baseline", str(tmp_path / "missing.json"))) == 2
    assert "cannot load baseline" in capsys.readouterr().err


def test_cli_bench_disjoint_baseline_is_not_green(capsys, tmp_path):
    # A baseline sharing no names with the run must fail loudly, not
    # report "OK: 0 benchmark(s)" — that would make the CI gate a no-op.
    baseline_path = tmp_path / "baseline.json"
    doc = _document_for(("macro.e3.throughput",))
    baseline_path.write_text(json.dumps(doc))
    argv = ["bench", "--filter", "micro.solve.vectorized", "--repeats", "1", "--warmup", "0"]
    assert main([*argv, "--baseline", str(baseline_path)]) == 2
    assert "no benchmark names shared" in capsys.readouterr().err


def test_cli_bench_rejects_bad_round_counts(capsys):
    assert main(["bench", "--repeats", "0"]) == 2
    assert "--repeats" in capsys.readouterr().err
    assert main(["bench", "--warmup", "-1"]) == 2


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
def test_cli_bench_rejects_a_bad_max_regression_before_measuring(capsys, value):
    # NaN compares false, so a NaN gate would pass every benchmark, and a
    # negative one has no meaning: usage errors, found before measuring.
    baseline = str(REPO / "benchmarks" / "baseline.json")
    assert main(_bench_cli("--baseline", baseline, "--max-regression", value)) == 2
    captured = capsys.readouterr()
    assert "--max-regression" in captured.err
    assert captured.out == ""
