"""Tree driver and the versioned ``ANALYZE.json`` findings document.

:func:`analyze_tree` walks a repository checkout (``src/repro``,
``tests``, ``benchmarks``), classifies each file into a rule scope, runs
the per-file checks plus the project invariants, and returns an
:class:`AnalysisReport`.  :func:`results_document` serialises a report
into the same shape of versioned, machine-readable JSON the bench
subsystem writes (``BENCH_<sha>.json``), so findings-over-time can join
the perf trajectory in CI artifacts; :func:`validate_document` rejects a
malformed document with a pointed error instead of a KeyError later.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn

from .checks import check_source
from .project import check_project
from .rules import RULES, Finding, resolve_rule

__all__ = [
    "SCHEMA_VERSION",
    "AnalysisReport",
    "analyze_tree",
    "file_scope",
    "load_document",
    "results_document",
    "validate_document",
    "write_document",
]

#: Bumped whenever the document layout changes incompatibly.
SCHEMA_VERSION = 1

#: The directories (relative to the root) the analyzer scans.
SCAN_ROOTS = ("src/repro", "tests", "benchmarks")

#: src/repro paths that are tooling, not deterministic library code.
_TOOLING_PREFIXES = ("src/repro/bench/", "src/repro/analyze/")
_TOOLING_FILES = ("src/repro/cli.py", "src/repro/__main__.py", "src/repro/serve/cli.py")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one analyzer run produced."""

    root: str
    files_scanned: int
    findings: tuple[Finding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_text(self) -> str:
        """The human-readable report (one line per finding + a summary)."""
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            counts = ", ".join(f"{rule} x{n}" for rule, n in self.by_rule().items())
            total = len(self.findings)
            lines.append(f"{total} finding(s) in {self.files_scanned} file(s): {counts}")
        else:
            lines.append(f"clean: 0 findings in {self.files_scanned} file(s)")
        return "\n".join(lines)


def file_scope(relpath: str) -> str:
    """Classify a root-relative posix path into a rule scope."""
    if relpath.startswith(("tests/", "benchmarks/")):
        return "tests"
    if relpath.startswith(_TOOLING_PREFIXES) or relpath in _TOOLING_FILES:
        return "tooling"
    return "library"


def _scan_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for scan_root in SCAN_ROOTS:
        base = root / scan_root
        if base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
    return files


def analyze_tree(
    root: str | Path,
    *,
    selected_rules: tuple[str, ...] | None = None,
    project: bool = True,
) -> AnalysisReport:
    """Run every applicable rule over the tree rooted at ``root``.

    ``selected_rules`` restricts the run to a subset of rule ids (the
    CLI's ``--rules``); ``project=False`` skips the registry-backed
    INV001/INV002 checks (useful on fixture trees that are not the real
    package).  Findings come back sorted by (path, line, rule).
    """
    root = Path(root)
    active = tuple(RULES) if selected_rules is None else selected_rules
    project_rules = tuple(r for r in active if resolve_rule(r).applies_to("project"))
    file_rules = tuple(r for r in active if r not in project_rules)

    findings: list[Finding] = []
    files = _scan_files(root)
    for path in files:
        relpath = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        findings.extend(
            check_source(source, relpath, file_scope(relpath), rule_ids=file_rules)
        )
    if project and project_rules:
        findings.extend(check_project(root, rule_ids=project_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return AnalysisReport(
        root=str(root), files_scanned=len(files), findings=tuple(findings)
    )


def results_document(report: AnalysisReport) -> dict[str, Any]:
    """The versioned, machine-readable ``ANALYZE.json`` document."""
    from ..bench.results import git_sha

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "repro-analyze-results",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "root": report.root,
        "files_scanned": report.files_scanned,
        "rules": [
            {
                "id": rule.id,
                "title": rule.title,
                "rationale": rule.rationale,
                "scopes": list(rule.scopes),
            }
            for rule in RULES.values()
        ],
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in report.findings
        ],
        "summary": {"total": len(report.findings), "by_rule": report.by_rule()},
    }


def validate_document(doc: dict[str, Any]) -> None:
    """Reject a malformed findings document with a pointed error."""

    def fail(message: str) -> NoReturn:
        raise ValueError(f"invalid analyze document: {message}")

    if not isinstance(doc, dict):
        fail(f"expected an object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    if doc.get("kind") != "repro-analyze-results":
        fail(f"kind must be 'repro-analyze-results', got {doc.get('kind')!r}")
    for key, kind in (("root", str), ("files_scanned", int), ("created_at", str)):
        if not isinstance(doc.get(key), kind):
            fail(f"{key!r} must be a {kind.__name__}, got {doc.get(key)!r}")
    if not isinstance(doc.get("rules"), list) or not doc["rules"]:
        fail("'rules' must be a non-empty list")
    known = {rule.get("id") for rule in doc["rules"]}
    if not isinstance(doc.get("findings"), list):
        fail("'findings' must be a list")
    for index, finding in enumerate(doc["findings"]):
        if not isinstance(finding, dict):
            fail(f"findings[{index}] must be an object")
        for key, kind in (
            ("rule", str),
            ("path", str),
            ("line", int),
            ("col", int),
            ("message", str),
        ):
            if not isinstance(finding.get(key), kind):
                fail(f"findings[{index}].{key} must be a {kind.__name__}")
        if finding["rule"] not in known:
            fail(f"findings[{index}].rule {finding['rule']!r} not in the rule catalog")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        fail("'summary' must be an object")
    if summary.get("total") != len(doc["findings"]):
        fail(
            f"summary.total {summary.get('total')!r} does not match "
            f"{len(doc['findings'])} findings"
        )
    by_rule = summary.get("by_rule")
    if not isinstance(by_rule, dict) or sum(by_rule.values()) != len(doc["findings"]):
        fail("summary.by_rule must partition the findings")


def write_document(doc: dict[str, Any], path: str | Path) -> Path:
    """Validate and write the document; returns the path."""
    validate_document(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


def load_document(path: str | Path) -> dict[str, Any]:
    """Read and validate a findings document written by :func:`write_document`."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"invalid analyze document: expected an object in {path}")
    doc: dict[str, Any] = raw
    validate_document(doc)
    return doc
