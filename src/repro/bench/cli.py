"""The ``python -m repro bench`` subcommand.

Runs the declared suite through the shared timing harness, renders a
:class:`~repro.table.Table` of the measurements, optionally writes the
versioned JSON document (``--json``, defaulting to ``BENCH_<sha>.json``
when no path is given), and optionally gates against a baseline
document (``--baseline`` + ``--max-regression``), exiting non-zero on
regression — the contract the CI ``bench-perf`` job enforces.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Mapping, Sequence
from typing import Any, cast

from ..table import Table
from .registry import select_benchmarks
from .results import (
    compare_documents,
    default_results_path,
    load_results,
    result_record,
    results_document,
    write_results,
)
from .timing import measure

__all__ = ["add_bench_parser", "run_bench"]

#: ``--json`` with no path: pick the conventional ``BENCH_<sha>.json``.
_AUTO_JSON = "<auto>"


def add_bench_parser(sub: "argparse._SubParsersAction[Any]") -> argparse.ArgumentParser:
    bench = sub.add_parser(
        "bench",
        help="run the benchmark suite; write JSON results; gate against a baseline",
        description=(
            "Run the micro/macro benchmark suite through the shared "
            "timing harness (warmup + best-of-N)."
        ),
    )
    bench.add_argument("--list", action="store_true", help="list the benchmarks and exit")
    bench.add_argument(
        "--filter",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="only benchmarks whose dotted name contains SUBSTR (repeatable; "
        "micro. or macro. selects a kind)",
    )
    bench.add_argument(
        "--repeats", type=int, default=5, metavar="N", help="timed rounds per benchmark"
    )
    bench.add_argument(
        "--warmup", type=int, default=1, metavar="N", help="untimed rounds per benchmark"
    )
    bench.add_argument(
        "--json",
        nargs="?",
        const=_AUTO_JSON,
        default=None,
        metavar="PATH",
        help="write the results document (default path: BENCH_<sha>.json)",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline results document to gate against (e.g. benchmarks/baseline.json)",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=25.0,
        metavar="PCT",
        help="fail when a benchmark's best time exceeds the baseline's by more "
        "than PCT percent (default 25)",
    )
    return bench


def _measurement_table(records: "Sequence[Mapping[str, Any]]") -> Table:
    table = Table()
    for record in records:
        timing = record["timing"]
        throughput = record["throughput_per_s"]
        table.append(
            name=record["name"],
            kind=record["kind"],
            best_ms=timing["best_s"] * 1000.0,
            median_ms=timing["median_s"] * 1000.0,
            stddev_ms=timing["stddev_s"] * 1000.0,
            throughput=f"{throughput:,.0f} {record['units']}/s" if throughput else "-",
        )
    return table


def run_bench(args: argparse.Namespace) -> int:
    benchmarks = select_benchmarks(args.filter)

    if not benchmarks:
        print("no benchmarks match the given --filter", file=sys.stderr)
        return 2

    if args.list:
        for bench in benchmarks:
            print(f"{bench.name} [{bench.kind}, {bench.units}]: {bench.description}")
        return 0
    if args.repeats < 1 or args.warmup < 0:
        print("--repeats must be >= 1 and --warmup >= 0", file=sys.stderr)
        return 2
    if not 0 <= args.max_regression < math.inf:
        print(
            f"--max-regression must be a finite number >= 0, got {args.max_regression:g}",
            file=sys.stderr,
        )
        return 2
    if args.baseline is not None:
        # Read the baseline before spending time measuring, and turn a
        # missing/corrupt file into the usage exit code, not a traceback.
        try:
            baseline = load_results(args.baseline)
        except (OSError, ValueError) as error:
            print(f"cannot load baseline {args.baseline}: {error}", file=sys.stderr)
            return 2

    records: list[dict[str, object]] = []
    for bench in benchmarks:
        run, work = bench.make()
        timing = measure(run, repeats=args.repeats, warmup=args.warmup)
        records.append(result_record(bench, timing, work))
    doc = results_document(records)

    print(_measurement_table(cast("Sequence[Mapping[str, Any]]", doc["benchmarks"])).to_text())

    if args.json is not None:
        path = default_results_path(str(doc["git_sha"])) if args.json == _AUTO_JSON else args.json
        try:
            written = write_results(doc, path)
        except OSError as error:
            # Exit 1 is reserved for "a benchmark regressed"; an
            # unwritable path is a usage problem, not a perf verdict.
            print(f"cannot write results to {path}: {error}", file=sys.stderr)
            return 2
        print(f"\nresults written to {written}")

    if args.baseline is None:
        return 0
    return _gate(doc, baseline, args.baseline, args.max_regression)


def _gate(
    doc: Mapping[str, object],
    baseline: Mapping[str, object],
    baseline_path: str,
    max_regression_pct: float,
) -> int:
    comparisons, only_in_baseline, only_in_current = compare_documents(
        doc, baseline, max_regression_pct=max_regression_pct
    )
    if not comparisons:
        # A gate that judged nothing must not read as green: no shared
        # names means the baseline is stale or aimed at the wrong suite.
        print(
            f"no benchmark names shared with baseline {baseline_path}; "
            "refresh it with --json or fix the --filter",
            file=sys.stderr,
        )
        return 2
    table = Table()
    for cmp in comparisons:
        table.append(
            name=cmp.name,
            baseline_ms=cmp.baseline_s * 1000.0,
            current_ms=cmp.current_s * 1000.0,
            change_pct=cmp.change_pct,
            verdict="REGRESSED" if cmp.regressed else "ok",
        )
    print(f"\nbaseline: {baseline_path} (gate: +{max_regression_pct:g}% on best-of-N)")
    print(table.to_text())
    if only_in_baseline:
        print(f"not run this time (in baseline only): {', '.join(only_in_baseline)}")
    if only_in_current:
        print(f"ungated (no baseline entry yet): {', '.join(only_in_current)}")

    regressions = [cmp for cmp in comparisons if cmp.regressed]
    if regressions:
        worst = max(regressions, key=lambda cmp: cmp.change_pct)
        print(
            f"\nFAIL: {len(regressions)}/{len(comparisons)} benchmark(s) regressed beyond "
            f"+{max_regression_pct:g}% (worst: {worst.name} at {worst.change_pct:+.1f}%)",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: {len(comparisons)} benchmark(s) within +{max_regression_pct:g}% of baseline")
    return 0
