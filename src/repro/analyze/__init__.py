"""repro.analyze — static enforcement of the reproducibility contract.

Every guarantee the package advertises — stacked replications
bit-identical to serial ones, crc32 name-hash rng streams that survive
reordering, reference-vs-vectorized engine equivalence — holds only as
long as nobody writes an unseeded rng, a wall-clock read or an
order-unstable iteration into the deterministic core.  The tests
enforce this *dynamically*, on the paths they happen to exercise; this
package enforces it *statically*, on every path, before any test runs:

* :mod:`repro.analyze.rules` — ``RULES``, the one declared rule catalog
  (DET001-DET006 for determinism, INV001-INV004 for structural
  invariants, GEN001 for unparseable files); each rule's scopes decide
  whether it runs per file or once per project.
* :mod:`repro.analyze.checks` — the per-file AST checks and the
  ``# repro: allow[rule-id]`` suppression comments.
* :mod:`repro.analyze.project` — whole-project invariants checked
  against the live registries (docstrings in listings, backend
  cross-validation).
* :mod:`repro.analyze.report` — the tree driver and the versioned
  ``ANALYZE.json`` findings document (the bench results idiom).
* :mod:`repro.analyze.cli` — ``python -m repro analyze``.
"""

from .checks import check_source, suppressed_lines
from .project import check_project
from .report import (
    SCHEMA_VERSION,
    AnalysisReport,
    analyze_tree,
    file_scope,
    load_document,
    results_document,
    validate_document,
    write_document,
)
from .rules import RULES, SCOPES, Finding, Rule, resolve_rule

__all__ = [
    "AnalysisReport",
    "Finding",
    "RULES",
    "Rule",
    "SCHEMA_VERSION",
    "SCOPES",
    "analyze_tree",
    "check_project",
    "check_source",
    "file_scope",
    "load_document",
    "resolve_rule",
    "results_document",
    "suppressed_lines",
    "validate_document",
    "write_document",
]
