"""The determinism/invariant analyzer: rules, suppressions, documents, CLI.

Per-rule fixtures run good and bad snippets through
:func:`repro.analyze.check_source` directly; CLI behavior (exit codes,
``--rules``, the JSON artifact) runs through ``repro.cli.main`` against
small fixture trees; and a meta-test requires the real repository tree
itself to be clean under its own linter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analyze import (
    RULES,
    AnalysisReport,
    analyze_tree,
    check_project,
    check_source,
    file_scope,
    load_document,
    resolve_rule,
    results_document,
    suppressed_lines,
    validate_document,
    write_document,
)
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


def _lint(source: str, *, path: str = "src/repro/demo.py", scope: str = "library"):
    return check_source(textwrap.dedent(source), path, scope)


def _rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


# -- per-rule fixtures: bad snippet flagged, good snippet clean ------------


def test_det001_flags_unseeded_generators():
    bad = """
        import numpy as np
        import random

        a = np.random.default_rng()
        b = np.random.RandomState(0)
        np.random.seed(0)
        c = np.random.normal(0.0, 1.0, 10)
        d = random.random()
    """
    findings = _lint(bad)
    assert _rules_of(findings) == {"DET001"}
    assert len(findings) == 5


def test_det001_good_seeded_generator_is_clean():
    good = """
        import numpy as np

        rng = np.random.default_rng(42)
        values = rng.normal(0.0, 1.0, 10)
        shuffled = rng.permutation(10)
    """
    assert _lint(good) == []


def test_det001_blessed_helpers_may_construct_rngs():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert check_source(source, "src/repro/stats/replication.py", "library") == []
    assert _rules_of(check_source(source, "src/repro/demo.py", "library")) == {"DET001"}


def test_det002_flags_wall_clock_in_library_scope_only():
    bad = """
        import time
        import datetime

        t0 = time.perf_counter()
        t1 = time.time()
        now = datetime.datetime.now()
    """
    findings = _lint(bad)
    assert _rules_of(findings) == {"DET002"}
    assert len(findings) == 3
    # The timing harness and the test suite are allowed to read the clock.
    assert _lint(bad, path="src/repro/bench/timing.py", scope="tooling") == []
    assert _lint(bad, path="tests/test_demo.py", scope="tests") == []


def test_det006_flags_environment_reads_outside_the_knob_table():
    bad = """
        import os

        a = os.environ.get("REPRO_X", "1")
        b = os.getenv("REPRO_X")
        c = dict(os.environ)
    """
    findings = _lint(bad)
    assert [(f.rule, f.line) for f in findings] == [("DET006", line) for line in (4, 5, 6)]
    # The CLI and the bench harness are tooling, and held to it too.
    assert len(_lint(bad, path="src/repro/cli.py", scope="tooling")) == 3
    # The knob table reads the environment; tests may set it up.
    assert _lint(bad, path="src/repro/scenario.py") == []
    assert _lint(bad, path="tests/test_demo.py", scope="tests") == []
    assert _lint("import os\nroot = os.path.join('a', 'b')\n") == []


def test_det003_flags_unordered_set_iteration():
    bad = """
        for name in {"b", "a"}:
            pass
        out = [n for n in set(["x", "y"])]
    """
    findings = _lint(bad)
    assert _rules_of(findings) == {"DET003"}
    assert len(findings) == 2
    # Only syntactic set expressions are flagged (a name's type is unknown).
    assert _lint("for name in names:\n    pass\n") == []


def test_det003_sorted_iteration_is_clean():
    good = """
        for name in sorted({"b", "a"}):
            pass
    """
    assert _lint(good) == []


def test_det004_flags_float_equality():
    bad = """
        def f(x):
            if x == 1.5:
                return True
            return x != -0.25
    """
    findings = _lint(bad)
    assert _rules_of(findings) == {"DET004"}
    assert len(findings) == 2


def test_det004_integer_equality_and_tolerance_are_clean():
    good = """
        import math

        def f(x, n):
            return n == 1 and math.isclose(x, 1.5) and x < 2.5
    """
    assert _lint(good) == []


def test_det005_flags_numpy_transcendentals_in_library_scope():
    bad = """
        import numpy
        import numpy as np

        a = np.exp(x)
        b = numpy.log2(3242)
        c = np.power(x, 0.85)
        d = np.sin(x)
    """
    findings = _lint(bad)
    assert [(f.rule, f.line) for f in findings] == [("DET005", line) for line in (5, 6, 7, 8)]
    assert "numpy.log2" in findings[1].message


def test_det005_allow_comment_needs_a_reason():
    source = (
        "import numpy as np\n"
        "a = np.exp(x)  # repro: allow[DET005] cast to float32, equal on every path\n"
        "b = np.exp(x)  # repro: allow[DET005]\n"
    )
    findings = check_source(source, "src/repro/demo.py", "library")
    assert [(f.rule, f.line) for f in findings] == [("DET005", 3)]


def test_det005_math_samplers_and_other_scopes_are_clean():
    good = """
        import math
        import numpy as np

        a = math.log2(3242)
        b = math.exp(1.0)
        c = rng.lognormal(0.0, 0.03, 10)
        d = np.sqrt(x) + np.maximum(x, 0.0)
    """
    assert _lint(good) == []
    flagged = "import numpy as np\na = np.exp(x)\n"
    assert _lint(flagged, path="tests/test_demo.py", scope="tests") == []
    assert _lint(flagged, path="src/repro/bench/demo.py", scope="tooling") == []


def test_cli_exit_one_on_a_det005_fixture(tmp_path, capsys):
    root = _fixture_tree(tmp_path, "import numpy as np\ny = np.log2(3242)\n")
    assert main(["analyze", "--root", str(root), "--skip-project"]) == 1
    assert "DET005" in capsys.readouterr().out


def test_inv003_flags_frozen_dataclass_mutation():
    bad = """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Config:
            x: int = 0

            def __post_init__(self):
                object.__setattr__(self, "x", 1)  # allowed here

            def rescale(self):
                self.x = 2
                object.__setattr__(self, "x", 3)
    """
    findings = _lint(bad)
    assert _rules_of(findings) == {"INV003"}
    assert len(findings) == 2


def test_inv003_unfrozen_class_is_clean():
    good = """
        class Mutable:
            def set(self, x):
                self.x = x
    """
    assert _lint(good) == []


def test_inv004_flags_print_in_library_scope_only():
    bad = 'print("hello")\n'
    assert _rules_of(check_source(bad, "src/repro/demo.py", "library")) == {"INV004"}
    assert check_source(bad, "src/repro/cli.py", "tooling") == []
    assert check_source(bad, "tests/test_demo.py", "tests") == []


def test_gen001_reported_for_unparseable_source():
    findings = check_source("def broken(:\n", "src/repro/demo.py", "library")
    assert [f.rule for f in findings] == ["GEN001"]


# -- suppressions ----------------------------------------------------------


def test_same_line_suppression_silences_exactly_its_rule():
    source = (
        "import numpy as np\n"
        "a = np.random.default_rng()  # repro: allow[DET001]\n"
        "b = np.random.default_rng()  # repro: allow[DET004]\n"
        "c = np.random.default_rng()\n"
    )
    findings = check_source(source, "src/repro/demo.py", "library")
    assert [f.line for f in findings] == [3, 4]


def test_suppressed_lines_parses_multiple_ids():
    lines = suppressed_lines("x = 1  # repro: allow[DET001, INV004]\n")
    assert lines == {1: frozenset({"DET001", "INV004"})}


# -- rule catalog ----------------------------------------------------------


def test_rule_catalog_is_complete_and_resolvable():
    file_rules = ["DET001", "DET002", "DET003", "DET004", "DET005", "DET006", "GEN001"]
    file_rules += ["INV003", "INV004"]
    # Sorted by id: the order --list-rules prints and ANALYZE.json embeds.
    assert list(RULES) == sorted([*file_rules, "INV001", "INV002"])
    # A rule's scopes decide whether it runs per file or once per project.
    assert [r for r in RULES if not RULES[r].applies_to("project")] == file_rules
    assert [RULES[r].scopes for r in ("INV001", "INV002")] == [("project",)] * 2
    for rule_id, rule in RULES.items():
        assert resolve_rule(rule_id) is rule
        assert rule.id == rule_id
        assert rule.title and rule.rationale


def test_resolve_rule_suggests_on_typo():
    with pytest.raises(ValueError, match="DET001"):
        resolve_rule("DET01")


def test_file_scope_classification():
    assert file_scope("src/repro/io_models.py") == "library"
    assert file_scope("src/repro/engine/vectorized.py") == "library"
    assert file_scope("src/repro/bench/timing.py") == "tooling"
    assert file_scope("src/repro/analyze/checks.py") == "tooling"
    assert file_scope("src/repro/cli.py") == "tooling"
    assert file_scope("tests/test_engine.py") == "tests"
    assert file_scope("benchmarks/test_bench_e1.py") == "tests"


# -- project invariants (INV001 / INV002) ----------------------------------


def test_inv001_flags_docstringless_registered_approach():
    from repro.io_models import _APPROACHES, IOApproach, register_approach

    class Undocumented(IOApproach):
        name = "undocumented-fixture"

    Undocumented.__doc__ = None
    register_approach(Undocumented())
    try:
        findings = check_project(REPO, rule_ids=("INV001",))
        assert any(
            f.rule == "INV001" and "undocumented-fixture" in f.message for f in findings
        )
    finally:
        del _APPROACHES["undocumented-fixture"]
    # And the real registries are fully documented.
    assert check_project(REPO, rule_ids=("INV001",)) == []


def test_inv001_flags_an_undescribed_suite_benchmark(monkeypatch):
    import dataclasses

    from repro.bench import suite

    undescribed = dataclasses.replace(suite.SUITE[0], name="micro.undescribed", description=" ")
    monkeypatch.setattr(suite, "SUITE", (*suite.SUITE, undescribed))
    (finding,) = check_project(REPO, rule_ids=("INV001",))
    # A ``partial`` maker has no source line, so the finding anchors in the suite module.
    assert (finding.rule, finding.path, finding.line) == ("INV001", "src/repro/bench/suite.py", 1)
    assert "'micro.undescribed' has no description" in finding.message


def test_inv002_flags_backend_without_crossval_test():
    from repro.engine.api import _BACKENDS

    _BACKENDS["fixture-backend"] = _BACKENDS["vectorized"]
    try:
        findings = check_project(REPO, rule_ids=("INV002",))
        assert any(
            f.rule == "INV002" and "fixture-backend" in f.message for f in findings
        )
    finally:
        del _BACKENDS["fixture-backend"]
    assert check_project(REPO, rule_ids=("INV002",)) == []


# -- the findings document -------------------------------------------------


def _fixture_tree(tmp_path: Path, source: str) -> Path:
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "demo.py").write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def test_document_round_trip(tmp_path):
    root = _fixture_tree(tmp_path, "import numpy as np\nrng = np.random.default_rng()\n")
    report = analyze_tree(root, project=False)
    assert not report.clean
    doc = results_document(report)
    validate_document(doc)
    path = write_document(doc, tmp_path / "out" / "ANALYZE.json")
    loaded = load_document(path)
    assert loaded["findings"] == doc["findings"]
    assert loaded["summary"]["total"] == len(report.findings)
    assert loaded["summary"]["by_rule"] == {"DET001": 1}


def test_validate_document_rejects_malformed(tmp_path):
    report = AnalysisReport(root=".", files_scanned=0, findings=())
    doc = results_document(report)
    validate_document(doc)

    broken = dict(doc, schema_version=99)
    with pytest.raises(ValueError, match="schema_version"):
        validate_document(broken)

    broken = dict(doc, summary={"total": 5, "by_rule": {}})
    with pytest.raises(ValueError, match="summary.total"):
        validate_document(broken)

    broken = dict(doc, findings=[{"rule": "NOPE"}])
    with pytest.raises(ValueError, match="findings"):
        validate_document(broken)


# -- CLI -------------------------------------------------------------------


def test_cli_exit_zero_on_clean_fixture(tmp_path, capsys):
    root = _fixture_tree(tmp_path, "rrr = 1\n")
    assert main(["analyze", "--root", str(root), "--skip-project"]) == 0
    assert "clean" in capsys.readouterr().out


BAD_CASES = {
    "DET001": "import numpy as np\nrng = np.random.default_rng()\n",
    "DET002": "import time\nt = time.time()\n",
    "DET003": "for x in {1, 2}:\n    pass\n",
    "DET004": "ok = 1.0 == x\n",
    "DET006": "import os\nvalue = os.getenv('REPRO_X')\n",
    "INV003": (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int = 0\n"
        "    def poke(self):\n"
        "        self.x = 1\n"
    ),
    "INV004": 'print("x")\n',
}


@pytest.mark.parametrize("rule", sorted(BAD_CASES))
def test_cli_exit_one_on_each_bad_fixture(tmp_path, capsys, rule):
    root = _fixture_tree(tmp_path, BAD_CASES[rule])
    assert main(["analyze", "--root", str(root), "--skip-project"]) == 1
    assert rule in capsys.readouterr().out


def test_cli_rules_filter_and_usage_errors(tmp_path, capsys):
    root = _fixture_tree(tmp_path, BAD_CASES["DET001"] + BAD_CASES["INV004"])
    # Filtered to INV004, the DET001 finding must not fail the run's subset.
    assert main(["analyze", "--root", str(root), "--skip-project", "--rules", "DET004"]) == 0
    assert main(["analyze", "--root", str(root), "--skip-project", "--rules", "INV004"]) == 1
    capsys.readouterr()
    assert main(["analyze", "--rules", "BOGUS99"]) == 2
    assert main(["analyze", "--root", str(tmp_path / "missing")]) == 2


def test_cli_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_cli_writes_json_document(tmp_path, capsys):
    root = _fixture_tree(tmp_path, BAD_CASES["DET002"])
    artifact = tmp_path / "ANALYZE.json"
    assert main(["analyze", "--root", str(root), "--skip-project", "--json", str(artifact)]) == 1
    doc = load_document(artifact)
    assert doc["summary"]["by_rule"] == {"DET002": 1}


def test_cli_json_format_prints_document(tmp_path, capsys):
    root = _fixture_tree(tmp_path, "value = 3\n")
    assert main(["analyze", "--root", str(root), "--skip-project", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "repro-analyze-results"
    assert doc["summary"]["total"] == 0


# -- the meta-test: this repository is clean under its own linter ----------


def test_repository_tree_is_clean():
    # The subprocess does not inherit pytest's pythonpath=src setting.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", "--root", str(REPO)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean: 0 findings" in proc.stdout
