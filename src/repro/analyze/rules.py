"""The analyzer's rule catalog: determinism and invariant rules by id.

:data:`RULES` is one declared ``{id: Rule}`` catalog of frozen
descriptors, and :func:`resolve_rule` looks one up with a did-you-mean
error.  A rule's *implementation* lives in :mod:`repro.analyze.checks`
(AST, per file) or :mod:`repro.analyze.project` (whole-project
invariants); the descriptor here is what the CLI lists and what
``ANALYZE.json`` embeds so a findings document is self-describing.

Rules apply per file *scope*; a rule whose scopes name ``project`` runs
once over the tree, every other rule once per file of its scopes:

* ``library`` — ``src/repro`` minus the tooling below; the deterministic
  core where every guarantee must hold.
* ``tooling`` — ``src/repro/bench``, ``src/repro/analyze``, the CLI and
  ``__main__``; may time and print (that is their job).
* ``tests`` — ``tests/`` and ``benchmarks/``; may time, but must stay
  seeded and order-stable so failures reproduce.
* ``project`` — not tied to one file; checked against the live
  registries (:data:`~repro.io_models.APPROACHES`, engine backends, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES", "Rule", "SCOPES", "resolve_rule"]

#: The file scopes a rule may apply to.
SCOPES = ("library", "tooling", "tests", "project")


@dataclass(frozen=True)
class Rule:
    """One static-analysis rule: an id, what it forbids, and why."""

    id: str
    title: str
    rationale: str
    #: Which file scopes the rule applies to (subset of :data:`SCOPES`).
    scopes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id or not self.id[0].isalpha():
            raise ValueError(f"rule id must be alphanumeric, got {self.id!r}")
        if not self.title or not self.rationale:
            raise ValueError(f"rule {self.id}: title and rationale must be non-empty")
        unknown = set(self.scopes) - set(SCOPES)
        if unknown:
            raise ValueError(f"rule {self.id}: unknown scopes {sorted(unknown)}")

    def applies_to(self, scope: str) -> bool:
        return scope in self.scopes


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` — the text-report line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: The rule catalog, by id in sorted order (the order ``--list-rules`` prints).
RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="DET001",
            title="unseeded random source",
            rationale=(
                "Every random stream must derive from an explicit seed (the crc32 "
                "name-hash scheme) or results stop being bit-identical across runs "
                "and execution orders.  Zero-argument default_rng(), the "
                "legacy RandomState, global np.random state and the stdlib random "
                "module all draw from process-global or OS entropy."
            ),
            scopes=("library", "tooling", "tests"),
        ),
        Rule(
            id="DET002",
            title="wall-clock call in deterministic code",
            rationale=(
                "Engine, experiment, workload and stats code must be a pure "
                "function of (inputs, seed); time.time()/perf_counter()/"
                "datetime.now() smuggle the host's clock into results.  Only "
                "repro.bench.timing may time, and only to measure wall cost."
            ),
            scopes=("library",),
        ),
        Rule(
            id="DET003",
            title="iteration over an unordered set",
            rationale=(
                "Set iteration order varies with insertion history and hash "
                "randomisation; iterating a set into any output (rows, batches, "
                "seeds) makes runs irreproducible.  Wrap the set in sorted()."
            ),
            scopes=("library", "tooling", "tests"),
        ),
        Rule(
            id="DET004",
            title="float equality comparison",
            rationale=(
                "== / != against a float literal is either vacuously exact (and "
                "breaks on any re-ordering of float ops) or silently wrong; use "
                "np.isclose / math.isclose or an explicit tolerance."
            ),
            scopes=("library", "tooling", "tests"),
        ),
        Rule(
            id="DET005",
            title="numpy transcendental ufunc in deterministic code",
            rationale=(
                "numpy picks the float64 loop of exp, log, power, sin, ... by CPU "
                "feature, and the loops round differently (np.log2(3242) on "
                "AVX-512), so results would depend on the host.  Use math on "
                "scalars or a Generator sampler (rng.lognormal), or allow the line "
                "with the reason its bits cannot differ."
            ),
            scopes=("library",),
        ),
        Rule(
            id="DET006",
            title="environment read outside repro.scenario",
            rationale=(
                "A run must be a function of its arguments and of the REPRO_* knobs "
                "that repro.scenario.KNOBS declares, parses and documents; an "
                "os.environ or os.getenv read anywhere else is a knob the table, "
                "the run flags and the README do not know."
            ),
            scopes=("library", "tooling"),
        ),
        Rule(
            id="GEN001",
            title="file does not parse",
            rationale=(
                "A syntax error means none of the determinism rules could be "
                "checked for the file; the analyzer reports it rather than "
                "silently skipping the file."
            ),
            scopes=("library", "tooling", "tests"),
        ),
        Rule(
            id="INV001",
            title="registered component lacks a docstring",
            rationale=(
                "The CLI listings print each registered approach / arrival "
                "process / benchmark with the first line of its docstring; an "
                "empty docstring ships an empty listing entry and an "
                "undocumented knob."
            ),
            scopes=("project",),
        ),
        Rule(
            id="INV002",
            title="engine backend lacks reference cross-validation",
            rationale=(
                "Every registered solver backend must be exercised against the "
                "reference event-driven solver by at least one test, or backend "
                "drift breaks the bit-identical-results contract unnoticed."
            ),
            scopes=("project",),
        ),
        Rule(
            id="INV003",
            title="frozen dataclass field assigned outside __post_init__",
            rationale=(
                "Frozen specs (Machine, Workload, ScenarioConfig, ...) are the "
                "package's immutability contract; object.__setattr__ or self.x = "
                "outside __post_init__ mutates what callers assume is hashable "
                "and shareable across processes.  Use dataclasses.replace."
            ),
            scopes=("library", "tooling", "tests"),
        ),
        Rule(
            id="INV004",
            title="print in library code",
            rationale=(
                "Library modules must stay silent so sweeps compose into clean "
                "pipelines; stdout belongs to the CLI and bench harness.  Return "
                "tables or raise, never print."
            ),
            scopes=("library",),
        ),
    )
}


def resolve_rule(rule_id: str) -> Rule:
    """Look a rule up by id, with the usual did-you-mean error."""
    try:
        return RULES[rule_id]
    except KeyError:
        known = ", ".join(RULES)
        raise ValueError(f"unknown rule {rule_id!r}; known rules: {known}") from None
