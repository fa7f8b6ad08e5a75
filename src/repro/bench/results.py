"""Versioned, machine-readable benchmark results and baseline comparison.

A results *document* is what ``python -m repro bench --json`` writes and
what the CI ``bench-perf`` gate compares: schema version, UTC creation
time, git sha, a machine fingerprint (platform / CPU count / python /
numpy — the variables that actually move wall-clock numbers), and one
record per benchmark carrying its name, kind, params, the
full per-round timings, and the derived ``throughput_per_s`` (work
units over best time).  The conventional on-disk name is
``BENCH_<sha>.json`` so a directory of documents reads as a performance
trajectory.

Comparison is by *name* over the intersection of the two documents
(a filtered run compares only what it ran) and uses the best-of-N
timing — the statistic least polluted by runner noise.  A benchmark
regresses when its best time exceeds the baseline's by more than
``max_regression_pct`` percent; the gate is deliberately generous
because baseline and candidate rarely share a machine.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NoReturn, cast

import numpy as np

from .registry import KINDS, Benchmark
from .timing import Timing

__all__ = [
    "SCHEMA_VERSION",
    "machine_fingerprint",
    "git_sha",
    "default_results_path",
    "result_record",
    "results_document",
    "validate_document",
    "write_results",
    "load_results",
    "Comparison",
    "compare_documents",
]

SCHEMA_VERSION = 1

_DOCUMENT_KEYS = ("schema_version", "created_at", "git_sha", "fingerprint", "benchmarks")
_RECORD_KEYS = ("name", "kind", "params", "units", "work", "timing", "throughput_per_s")
_TIMING_KEYS = ("repeats", "warmup", "seconds", "best_s", "median_s", "mean_s", "stddev_s")


def machine_fingerprint() -> dict[str, object]:
    """The hardware/software identity a timing is only comparable within."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 1,
        "numpy": np.__version__,
    }


def git_sha(cwd: str | Path | None = None) -> str:
    """HEAD's sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def default_results_path(sha: str | None = None) -> Path:
    """The conventional ``BENCH_<sha>.json`` artifact name."""
    return Path(f"BENCH_{(sha or git_sha())[:12]}.json")


def result_record(bench: Benchmark, timing: Timing, work: float) -> dict[str, object]:
    """One benchmark's entry in the results document."""
    return {
        "name": bench.name,
        "kind": bench.kind,
        "params": dict(bench.params),
        "units": bench.units,
        "work": float(work),
        "timing": timing.as_dict(),
        "throughput_per_s": (float(work) / timing.best) if work and timing.best > 0 else None,
    }


def results_document(
    records: Sequence[Mapping[str, object]],
    *,
    sha: str | None = None,
) -> dict[str, object]:
    """Wrap benchmark records into a versioned, fingerprinted document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": sha or git_sha(),
        "fingerprint": machine_fingerprint(),
        "benchmarks": sorted(records, key=lambda r: (KINDS.index(str(r["kind"])), str(r["name"]))),
    }


def validate_document(doc: object) -> dict[str, object]:
    """Check ``doc`` against the schema; return it, or raise ``ValueError``."""

    def fail(message: str) -> NoReturn:
        raise ValueError(f"invalid benchmark results document: {message}")

    if not isinstance(doc, Mapping):
        fail(f"expected a JSON object, got {type(doc).__name__}")
    for key in _DOCUMENT_KEYS:
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        fail(f"schema_version {doc['schema_version']!r} != supported {SCHEMA_VERSION}")
    if not isinstance(doc["benchmarks"], Sequence) or isinstance(doc["benchmarks"], str):
        fail("'benchmarks' must be a list")
    seen: set[str] = set()
    for record in doc["benchmarks"]:
        if not isinstance(record, Mapping):
            fail("benchmark records must be JSON objects")
        for key in _RECORD_KEYS:
            if key not in record:
                fail(f"benchmark record missing key {key!r}")
        name = record["name"]
        if record["kind"] not in KINDS:
            fail(f"benchmark {name!r}: kind must be one of {KINDS}")
        if name in seen:
            fail(f"duplicate benchmark name {name!r}")
        seen.add(name)
        timing = record["timing"]
        if not isinstance(timing, Mapping):
            fail(f"benchmark {name!r}: 'timing' must be a JSON object")
        for key in _TIMING_KEYS:
            if key not in timing:
                fail(f"benchmark {name!r}: timing missing key {key!r}")
        seconds = timing["seconds"]
        if not isinstance(seconds, Sequence) or isinstance(seconds, str) or not seconds:
            fail(f"benchmark {name!r}: timing has no rounds")
        # A NaN or infinite time would read "ok" against any gate.
        if not all(_is_time(s) for s in seconds):
            fail(f"benchmark {name!r}: round times must be finite positive numbers")
        if not _is_time(timing["best_s"]):
            fail(f"benchmark {name!r}: best_s must be a finite positive number")
    return dict(doc)


def _is_time(value: object) -> bool:
    """A finite positive number of seconds (NaN fails both compares)."""
    return isinstance(value, int | float) and not isinstance(value, bool) and 0 < value < math.inf


def write_results(doc: Mapping[str, object], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


def load_results(path: str | Path) -> dict[str, object]:
    """Read and schema-validate a results document."""
    with open(path, encoding="utf-8") as handle:
        return validate_document(json.load(handle))


@dataclass(frozen=True)
class Comparison:
    """One benchmark's current-vs-baseline verdict."""

    name: str
    baseline_s: float
    current_s: float
    max_regression_pct: float

    @property
    def change_pct(self) -> float:
        """Positive = slower than baseline."""
        return (self.current_s / self.baseline_s - 1.0) * 100.0

    @property
    def regressed(self) -> bool:
        return self.change_pct > self.max_regression_pct


def compare_documents(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    *,
    max_regression_pct: float,
) -> tuple[list[Comparison], list[str], list[str]]:
    """Compare best-of-N times by benchmark name.

    Returns ``(comparisons, only_in_baseline, only_in_current)``; only
    the intersection is judged, so a ``--filter``-ed run gates just the
    benchmarks it measured.
    """
    if not 0 <= max_regression_pct < math.inf:
        raise ValueError(f"max_regression_pct must be finite and >= 0, got {max_regression_pct}")
    current_records = cast("Sequence[Mapping[str, Any]]", current["benchmarks"])
    baseline_records = cast("Sequence[Mapping[str, Any]]", baseline["benchmarks"])
    current_by = {str(r["name"]): r for r in current_records}
    baseline_by = {str(r["name"]): r for r in baseline_records}
    comparisons = [
        Comparison(
            name=name,
            baseline_s=float(baseline_by[name]["timing"]["best_s"]),
            current_s=float(current_by[name]["timing"]["best_s"]),
            max_regression_pct=max_regression_pct,
        )
        for name in sorted(current_by.keys() & baseline_by.keys())
    ]
    only_in_baseline = sorted(baseline_by.keys() - current_by.keys())
    only_in_current = sorted(current_by.keys() - baseline_by.keys())
    return comparisons, only_in_baseline, only_in_current
