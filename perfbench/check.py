"""Output checks: parse rendered tables and compare them with the reference backend.

The tolerance is the one the repository's engine fuzz uses for
cross-backend agreement (``rtol=1e-9``, ``atol=1e-6``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from typing import Any

RTOL = 1e-9
ATOL = 1e-6

#: Columns that hold a host measurement rather than a simulated value:
#: E5's ``dedicated_core_s`` is a timed zlib call.
UNCOMPARED = frozenset({"dedicated_core_s"})


def parse_tables(text: str) -> dict[str, list[dict[str, Any]]]:
    """Parse ``python -m repro run --format json`` output into named tables.

    One table prints as a bare JSON array; several print as ``# name``
    headers each followed by an array.
    """
    if not text.lstrip().startswith("#"):
        return {"": json.loads(text)}
    tables: dict[str, list[dict[str, Any]]] = {}
    name = ""
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("# "):
            if body:
                tables[name] = json.loads("\n".join(body))
            name, body = line[2:].strip(), []
        else:
            body.append(line)
    if body:
        tables[name] = json.loads("\n".join(body))
    return tables


def _close(actual: Any, expected: Any) -> bool:
    numbers = (int, float)
    if isinstance(actual, bool) or isinstance(expected, bool):
        return actual is expected
    if isinstance(actual, numbers) and isinstance(expected, numbers):
        if math.isnan(actual) or math.isnan(expected):
            return math.isnan(actual) and math.isnan(expected)
        return abs(actual - expected) <= ATOL + RTOL * abs(expected)
    return bool(actual == expected)


def compare_rows(
    actual: Iterable[dict[str, Any]], expected: Iterable[dict[str, Any]], where: str
) -> list[str]:
    """Every disagreement between two row lists, as readable messages."""
    actual, expected = list(actual), list(expected)
    if len(actual) != len(expected):
        return [f"{where}: {len(actual)} rows, reference has {len(expected)}"]
    problems: list[str] = []
    for index, (got, want) in enumerate(zip(actual, expected, strict=True)):
        if sorted(got) != sorted(want):
            problems.append(f"{where} row {index}: columns {sorted(got)} != {sorted(want)}")
            continue
        for column in sorted(got):
            if column in UNCOMPARED:
                continue
            if not _close(got[column], want[column]):
                problems.append(
                    f"{where} row {index} {column}: {got[column]!r} != reference {want[column]!r}"
                )
    return problems


def compare_tables(
    actual: dict[str, list[dict[str, Any]]],
    expected: dict[str, list[dict[str, Any]]],
    where: str,
) -> list[str]:
    """Every disagreement between two sets of named tables."""
    if sorted(actual) != sorted(expected):
        return [f"{where}: tables {sorted(actual)} != reference {sorted(expected)}"]
    problems: list[str] = []
    for name in sorted(actual):
        problems.extend(compare_rows(actual[name], expected[name], f"{where}:{name}"))
    return problems
