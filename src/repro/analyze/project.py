"""Whole-project invariant checks (the INV00x rules that span files).

Unlike :mod:`repro.analyze.checks`, these rules cannot be decided one
file at a time: they interrogate the *live* registries — approaches,
arrival processes, engine backends — and the benchmark suite exactly as
the CLI listings do, so "registered" and "listed" cannot drift apart.
Findings anchor at the defining class or the suite module (INV001) or
the backend registry (INV002) and honor the same
``# repro: allow[...]`` suppression comments.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Any

from .checks import suppressed_lines
from .rules import RULES, Finding

__all__ = ["check_project"]


def _anchor(obj: Any, root: Path) -> tuple[str, int]:
    """(root-relative posix path, line) of an object's definition."""
    try:
        source_file = inspect.getsourcefile(obj)
        _, line = inspect.getsourcelines(obj)
    except (OSError, TypeError):
        return "<unknown>", 1
    if source_file is None:
        return "<unknown>", 1
    path = Path(source_file).resolve()
    try:
        return path.relative_to(root.resolve()).as_posix(), line
    except ValueError:
        return path.as_posix(), line


def _first_doc_line(obj: Any) -> str:
    # The CLI listings print ``__doc__`` of the concrete class, which —
    # unlike inspect.getdoc — does not inherit from bases; match that.
    return (getattr(obj, "__doc__", None) or "").strip().split("\n")[0]


def _check_docstrings(root: Path) -> list[Finding]:
    """INV001: every registered component documents itself for the listing."""
    from ..bench.registry import select_benchmarks
    from ..io_models import approach_names, resolve_approach
    from ..workloads.arrivals import arrival_process_names, resolve_arrival_process

    findings: list[Finding] = []
    for name in approach_names():
        approach = resolve_approach(name)
        if not _first_doc_line(type(approach)):
            path, line = _anchor(type(approach), root)
            findings.append(
                Finding(
                    rule="INV001",
                    path=path,
                    line=line,
                    col=1,
                    message=f"approach {name!r} has no docstring; the CLI listing "
                    "prints its first line",
                )
            )
    for name in arrival_process_names():
        process = resolve_arrival_process(name)
        if not _first_doc_line(type(process)):
            path, line = _anchor(type(process), root)
            findings.append(
                Finding(
                    rule="INV001",
                    path=path,
                    line=line,
                    col=1,
                    message=f"arrival process {name!r} has no docstring; the CLI "
                    "listing prints its first line",
                )
            )
    for benchmark in select_benchmarks():
        if not benchmark.description.strip():
            # A ``partial`` maker has no source line; the suite module does.
            findings.append(
                Finding(
                    rule="INV001",
                    path="src/repro/bench/suite.py",
                    line=1,
                    col=1,
                    message=f"benchmark {benchmark.name!r} has no description; "
                    "the bench listing prints it",
                )
            )
    return findings


def _check_backend_crossval(root: Path) -> list[Finding]:
    """INV002: every solver backend is tested against ``reference``."""
    from ..engine.api import backend_names

    tests_dir = root / "tests"
    test_sources: dict[Path, str] = {}
    if tests_dir.is_dir():
        for test_path in sorted(tests_dir.glob("*.py")):
            test_sources[test_path] = test_path.read_text(encoding="utf-8")

    findings: list[Finding] = []
    for name in backend_names():
        if name == "reference":
            continue
        covered = any(
            name in source and "reference" in source for source in test_sources.values()
        )
        if not covered:
            findings.append(
                Finding(
                    rule="INV002",
                    path="src/repro/engine/api.py",
                    line=1,
                    col=1,
                    message=f"backend {name!r} has no test cross-validating it "
                    "against the reference solver",
                )
            )
    return findings


def _apply_suppressions(findings: list[Finding], root: Path) -> list[Finding]:
    allowed_by_path: dict[str, dict[int, frozenset[str]]] = {}
    kept: list[Finding] = []
    for finding in findings:
        if finding.path not in allowed_by_path:
            source_path = root / finding.path
            try:
                source = source_path.read_text(encoding="utf-8")
            except OSError:
                source = ""
            allowed_by_path[finding.path] = suppressed_lines(source)
        allowed = allowed_by_path[finding.path].get(finding.line, frozenset())
        if finding.rule not in allowed:
            kept.append(finding)
    return kept


def check_project(root: Path, *, rule_ids: tuple[str, ...] = tuple(RULES)) -> list[Finding]:
    """Run the project-level invariants among ``rule_ids``; findings honor suppressions."""
    findings: list[Finding] = []
    if "INV001" in rule_ids:
        findings.extend(_check_docstrings(root))
    if "INV002" in rule_ids:
        findings.extend(_check_backend_crossval(root))
    return _apply_suppressions(findings, root)
