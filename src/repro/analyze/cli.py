"""The ``python -m repro analyze`` subcommand.

Walks the repository tree, runs every determinism/invariant rule, prints
the findings as text (or the full JSON document with ``--format json``),
and optionally writes the versioned ``ANALYZE.json`` artifact the CI
``static-analysis`` job uploads.  Exit codes follow the bench gate's
contract: 0 clean, 1 findings, 2 usage problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from .report import analyze_tree, results_document, write_document
from .rules import RULES, resolve_rule

__all__ = ["add_analyze_parser", "run_analyze"]

#: ``--json`` with no path: the conventional artifact name.
_AUTO_JSON = "ANALYZE.json"


def add_analyze_parser(sub: "argparse._SubParsersAction[Any]") -> argparse.ArgumentParser:
    analyze = sub.add_parser(
        "analyze",
        help="run the determinism/invariant linter over the repository tree",
        description=(
            "Static analysis for the package's reproducibility contract: "
            "unseeded rngs, wall-clock reads, unordered iteration, float "
            "equality, host-dependent numpy transcendentals, undocumented "
            "registry entries, frozen-dataclass mutation and stray prints.  "
            "Suppress a finding, sparingly, with a same-line "
            "'# repro: allow[RULE-ID]' comment."
        ),
    )
    analyze.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="repository root to scan (default: current directory)",
    )
    analyze.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    analyze.add_argument(
        "--list-rules", action="store_true", help="list the rule catalog and exit"
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    analyze.add_argument(
        "--json",
        nargs="?",
        const=_AUTO_JSON,
        default=None,
        metavar="PATH",
        help=f"also write the findings document (default path: {_AUTO_JSON})",
    )
    analyze.add_argument(
        "--skip-project",
        action="store_true",
        help="skip the registry-backed INV001/INV002 checks (fixture trees)",
    )
    return analyze


def run_analyze(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id} [{', '.join(rule.scopes)}]: {rule.title}")
        return 0

    selected: tuple[str, ...] | None = None
    if args.rules is not None:
        try:
            selected = tuple(
                resolve_rule(part.strip()).id
                for part in args.rules.split(",")
                if part.strip()
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        if not selected:
            known = ", ".join(RULES)
            print(f"--rules selected nothing; known rules: {known}", file=sys.stderr)
            return 2

    root = Path(args.root)
    if not root.is_dir():
        print(f"--root {args.root!r} is not a directory", file=sys.stderr)
        return 2

    report = analyze_tree(root, selected_rules=selected, project=not args.skip_project)
    doc = results_document(report)

    if args.format == "json":
        import json

        print(json.dumps(doc, indent=2))
    else:
        print(report.to_text())

    if args.json is not None:
        try:
            written = write_document(doc, args.json)
        except OSError as error:
            # Exit 1 is reserved for "the tree has findings"; an
            # unwritable artifact path is a usage problem.
            print(f"cannot write findings to {args.json}: {error}", file=sys.stderr)
            return 2
        print(f"findings document written to {written}", file=sys.stderr)

    return 0 if report.clean else 1
