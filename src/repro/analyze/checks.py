"""Per-file AST checks for the determinism and invariant rules.

:func:`check_source` parses one file and runs every file-scoped rule that
applies to the file's scope (see :mod:`repro.analyze.rules`).  The checks
are deliberately syntactic — no imports are executed, no type inference —
so the analyzer can run on a broken tree and never perturbs what it
inspects.  A finding can be silenced, sparingly, with a same-line
suppression comment::

    rng = np.random.default_rng()  # repro: allow[DET001]

Several rules may be listed, comma-separated: ``# repro: allow[DET001,DET004]``.
A DET005 suppression must say why the line's bits cannot depend on the
host, after the bracket; without a reason it silences nothing.
"""

from __future__ import annotations

import ast
import re

from .rules import RULES, Finding, resolve_rule

__all__ = ["check_source", "suppressed_lines"]

#: Files blessed to construct random generators: the seeding helpers
#: themselves.  Matched against the analyzer-relative posix path.
DET001_BLESSED = (
    "src/repro/stats/replication.py",
    "src/repro/util.py",
)

#: The one file that may read the environment: the knob table.
DET006_BLESSED = ("src/repro/scenario.py",)

#: ``os`` attributes that read the environment.
_ENVIRONMENT_READS = frozenset({"os.environ", "os.getenv"})

#: np.random module-level sampling functions (the global, unseeded stream).
_GLOBAL_NP_SAMPLERS = frozenset(
    {
        "rand",
        "randn",
        "random",
        "random_sample",
        "randint",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "lognormal",
        "poisson",
        "exponential",
        "gamma",
        "beta",
        "binomial",
    }
)

#: ``time.<attr>()`` calls that read the host clock.
_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``datetime.<attr>()`` / ``date.<attr>()`` constructors that read the clock.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: numpy ufuncs whose float64 loop numpy picks by CPU feature and which
#: are not correctly rounded, so their bits can differ between hosts.
_TRANSCENDENTAL_UFUNCS = frozenset(
    "exp exp2 expm1 log log2 log10 log1p logaddexp logaddexp2 power float_power cbrt "
    "sin cos tan arcsin arccos arctan arctan2 sinh cosh tanh arcsinh arccosh arctanh".split()
)

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\](.*)")


def suppressed_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed by ``# repro: allow[...]``."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            named = (part.strip() for part in match.group(1).split(","))
            reason = match.group(2).strip()
            ids = frozenset(i for i in named if i and (reason or i != "DET005"))
            if ids:
                out[lineno] = ids
    return out


def _attr_chain(node: ast.AST) -> str:
    """``np.random.default_rng`` -> ``"np.random.default_rng"`` (best effort)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    # A negated literal (-1.5) parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


class _FileChecker(ast.NodeVisitor):
    """One pass over a module AST, collecting findings for active rules."""

    def __init__(self, path: str, active: frozenset[str]) -> None:
        self.path = path
        self.active = active
        self.findings: list[Finding] = []
        #: Stack of (frozen-dataclass?, current-method-name) contexts.
        self._class_stack: list[bool] = []
        self._method_stack: list[str] = []

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        if rule_id not in self.active:
            return
        self.findings.append(
            Finding(
                rule=rule_id,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    # -- DET001 / DET002 / DET005 / INV003 / INV004: calls ---------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        self._check_random_call(node, chain)
        self._check_clock_call(node, chain)
        root, _, attr = chain.partition(".")
        if root in {"np", "numpy"} and attr in _TRANSCENDENTAL_UFUNCS:
            self._report(
                "DET005",
                node,
                f"{chain} picks its float64 loop by CPU feature, so its bits can "
                "depend on the host; use the math module on scalars or a "
                "Generator sampler, or '# repro: allow[DET005] <reason>'",
            )
        if chain == "print":
            self._report("INV004", node, "print() in library code; return a Table or raise")
        if chain.endswith("object.__setattr__") and self._in_frozen_method():
            self._report(
                "INV003",
                node,
                "object.__setattr__ on a frozen dataclass outside __post_init__; "
                "use dataclasses.replace",
            )
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, chain: str) -> None:
        if chain.endswith("random.default_rng") and not node.args and not node.keywords:
            self._report(
                "DET001",
                node,
                "default_rng() without a seed draws OS entropy; derive the seed "
                "from the crc32 name-hash scheme (repro.util.seed_key)",
            )
        elif chain.endswith("random.RandomState"):
            self._report(
                "DET001", node, "legacy RandomState; use a seeded np.random.default_rng"
            )
        elif chain.endswith("np.random.seed") or chain == "numpy.random.seed":
            self._report(
                "DET001",
                node,
                "np.random.seed mutates the process-global stream; pass explicit "
                "Generator objects instead",
            )
        elif chain.startswith(("np.random.", "numpy.random.")):
            attr = chain.rsplit(".", 1)[1]
            if attr in _GLOBAL_NP_SAMPLERS:
                self._report(
                    "DET001",
                    node,
                    f"np.random.{attr} samples the process-global stream; use a "
                    "seeded Generator",
                )
        elif chain.startswith("random.") and chain.count(".") == 1:
            self._report(
                "DET001",
                node,
                "stdlib random module shares process-global state; use a seeded "
                "np.random.default_rng",
            )

    def _check_clock_call(self, node: ast.Call, chain: str) -> None:
        if "." not in chain:
            return
        root, attr = chain.split(".", 1)[0], chain.rsplit(".", 1)[1]
        if root == "time" and attr in _TIME_ATTRS:
            self._report(
                "DET002",
                node,
                f"time.{attr}() reads the host clock; only repro.bench.timing may time",
            )
        elif root in {"datetime", "date"} and attr in _DATETIME_ATTRS:
            self._report(
                "DET002",
                node,
                f"{chain}() reads the host clock; results must be a function of "
                "(inputs, seed)",
            )

    # -- DET006: environment reads ---------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _attr_chain(node)
        if chain in _ENVIRONMENT_READS:
            self._report(
                "DET006",
                node,
                f"{chain} reads the environment outside repro.scenario; declare the "
                "variable in repro.scenario.KNOBS and read it through its Knob",
            )
        self.generic_visit(node)

    # -- DET003: set iteration -------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_generators(
        self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        for generator in node.generators:
            self._check_set_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_generators
    visit_SetComp = _visit_comprehension_generators
    visit_GeneratorExp = _visit_comprehension_generators
    visit_DictComp = _visit_comprehension_generators

    def _check_set_iteration(self, iter_node: ast.expr) -> None:
        if _is_set_expression(iter_node):
            self._report(
                "DET003",
                iter_node,
                "iterating an unordered set; wrap it in sorted() so the order "
                "is reproducible",
            )

    # -- DET004: float equality ------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands[:-1], operands[1:], strict=True):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_float_literal(left) or _is_float_literal(right)
            ):
                self._report(
                    "DET004",
                    node,
                    "float equality comparison; use np.isclose/math.isclose or "
                    "an explicit tolerance",
                )
                break
        self.generic_visit(node)

    # -- INV003: frozen dataclass mutation -------------------------------

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                chain = _attr_chain(decorator.func)
                if chain.endswith("dataclass"):
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "frozen"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False

    def _in_frozen_method(self) -> bool:
        return (
            bool(self._class_stack)
            and self._class_stack[-1]
            and bool(self._method_stack)
            and self._method_stack[-1] != "__post_init__"
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(self._is_frozen_dataclass(node))
        try:
            self.generic_visit(node)
        finally:
            self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._method_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._method_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._in_frozen_method():
            for target in node.targets:
                self._check_self_assignment(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._in_frozen_method():
            self._check_self_assignment(node.target, node)
        self.generic_visit(node)

    def _check_self_assignment(self, target: ast.expr, node: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._report(
                "INV003",
                node,
                f"assignment to self.{target.attr} on a frozen dataclass outside "
                "__post_init__; use dataclasses.replace",
            )


def check_source(
    source: str,
    path: str,
    scope: str,
    *,
    rule_ids: tuple[str, ...] = tuple(RULES),
) -> list[Finding]:
    """Run the rules of ``rule_ids`` that apply to ``scope`` over one module's source.

    ``path`` is the analyzer-relative posix path used both in findings and
    for the DET001 blessed-file exemption; ``scope`` is the file's scope
    (``library``/``tooling``/``tests``).  Findings on lines carrying a
    matching ``# repro: allow[...]`` comment are dropped.
    """
    active = {
        rule_id for rule_id in rule_ids if resolve_rule(rule_id).applies_to(scope)
    }
    if path in DET001_BLESSED:
        active.discard("DET001")
    if path in DET006_BLESSED:
        active.discard("DET006")
    if not active:
        return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        line = error.lineno or 1
        return [
            Finding(
                rule="GEN001",
                path=path,
                line=line,
                col=(error.offset or 0) + 1,
                message=f"file does not parse ({error.msg}); nothing can be verified",
            )
        ]
    checker = _FileChecker(path, frozenset(active))
    checker.visit(tree)
    allowed = suppressed_lines(source)
    return [
        finding
        for finding in checker.findings
        if finding.rule not in allowed.get(finding.line, frozenset())
    ]
