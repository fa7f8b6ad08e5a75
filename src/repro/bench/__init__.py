"""Benchmarking: a declared suite, a timing harness, and versioned JSON results.

The ROADMAP's north star — "as fast as the hardware allows" — is only a
claim until wall-clock performance is a *tracked output* of the repo.
This package makes it one:

* :mod:`~repro.bench.timing` — the shared warmup + best-of-N harness
  (:func:`measure`, :class:`Timing`) and the perf-ratio assertion helper
  (:func:`assert_speedup`) with its ``REPRO_PERF_STRICT=0`` escape hatch
  for noisy shared runners.
* :mod:`~repro.bench.registry` — the :class:`Benchmark` recipe (setup
  separated from the timed run), looked up by name or substring filter.
* :mod:`~repro.bench.suite` — ``SUITE``, one tuple of 14 benchmarks:
  engine micro-benchmarks (twin solvers, stacked ``solve_many`` vs the
  serial loop, the replication driver, burst arrival generation) and
  full-scale macro-benchmarks (E1–E4, E9, replicated E2, the solve
  service).  The lookups import it on first use, so code that only times
  (E5's ``time_once``) does not load the experiments and the service.
* :mod:`~repro.bench.results` — the versioned ``BENCH_<sha>.json``
  document (machine fingerprint, git sha, per-round timings, derived
  throughput) and best-of-N baseline comparison.
* :mod:`~repro.bench.cli` — ``python -m repro bench`` with
  ``--filter/--json/--baseline/--max-regression``, exiting non-zero on
  regression; the CI ``bench-perf`` job gates on it against the
  committed ``benchmarks/baseline.json``.
"""

from .registry import Benchmark, resolve_benchmark, select_benchmarks
from .results import (
    SCHEMA_VERSION,
    Comparison,
    compare_documents,
    default_results_path,
    git_sha,
    load_results,
    machine_fingerprint,
    result_record,
    results_document,
    validate_document,
    write_results,
)
from .timing import PerfWarning, Timing, assert_speedup, measure, perf_strict, time_once

__all__ = [
    "Benchmark",
    "resolve_benchmark",
    "select_benchmarks",
    "Timing",
    "measure",
    "time_once",
    "perf_strict",
    "assert_speedup",
    "PerfWarning",
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
