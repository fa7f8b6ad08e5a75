"""``python -m repro`` — run any experiment from the command line.

Examples::

    python -m repro run e1 --machine kraken --full-scale --format csv
    python -m repro run e2 --replications 30 --format csv
    python -m repro run e3 --backend reference --seed 7
    python -m repro run e6 --format json
    python -m repro run e9 --workload "app=bg,ranks=1152,arrival=burst" --trace traces/
    python -m repro serve --cells 16 --passes 8 --compare-inline
    python -m repro machines
    python -m repro approaches
    python -m repro workloads
    python -m repro bench --filter micro --json out.json
    python -m repro bench --baseline benchmarks/baseline.json --max-regression 25

``run`` builds a :class:`~repro.scenario.ScenarioConfig` from the flags
that :data:`repro.scenario.KNOBS` declares (their ``REPRO_*`` variables
fill whatever the flags leave out), calls the runners that
:data:`repro.experiments.EXPERIMENTS` lists for the experiment on the
scenario's backend, and prints the resulting table(s) as text, CSV or
JSON, applying each table's shape check after printing it when asked.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections.abc import Sequence
from typing import Any

from .engine import default_backend, machine_names, resolve_machine, use_backend
from .experiments import EXPERIMENTS
from .io_models import approach_names, resolve_approach
from .scenario import KNOBS, _from_knobs
from .table import Table
from .workloads import arrival_process_names, resolve_arrival_process

__all__ = ["main"]


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  For ``command == "run"``, empty stand-ins replace the
    subcommands ``run`` never uses, and keep its error usage line as is."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments against the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and print its table(s)")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    for knob in KNOBS:
        if knob.flag is None:
            continue
        kind: dict[str, Any] = (
            {"action": "store_true", "default": None} if knob.switch else {"type": knob.value}
        )
        run.add_argument(knob.flag, dest=knob.field, help=f"{knob.help} [{knob.variable}]", **kind)
    run.add_argument("--format", choices=("text", "csv", "json"), default="text")
    run.add_argument(
        "--output-dir", default=None, help="artifact directory for e5/e8 (default: temp)"
    )
    run.add_argument("--check", action="store_true", help="also apply the experiment's shape check")

    sub.add_parser("machines", help="list registered machines")
    sub.add_parser("approaches", help="list registered I/O approaches")
    sub.add_parser("workloads", help="list registered arrival processes + workload spec syntax")
    if command == "run":
        for name in ("serve", "bench", "analyze"):
            sub.add_parser(name)
        return parser
    from .analyze.cli import add_analyze_parser, run_analyze
    from .bench.cli import add_bench_parser, run_bench
    from .serve.cli import add_serve_parser, run_serve

    add_serve_parser(sub).set_defaults(handler=run_serve)
    add_bench_parser(sub).set_defaults(handler=run_bench)
    add_analyze_parser(sub).set_defaults(handler=run_analyze)
    return parser


def _render(name: str, table: Table, fmt: str, multiple: bool) -> str:
    if fmt == "csv":
        body = table.to_csv()
    elif fmt == "json":
        body = table.to_json(indent=2) + "\n"
    else:
        body = table.to_text() + "\n"
    if multiple:
        return f"# {name}\n{body}"
    return body


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)

    if args.command == "machines":
        for name in machine_names():
            machine = resolve_machine(name)
            print(
                f"{name}: {machine.cores_per_node} cores/node, "
                f"{machine.ost_count} OSTs, peak {machine.peak_bandwidth / (1024**3):.1f} GiB/s"
            )
        return 0
    if args.command == "approaches":
        for name in approach_names():
            doc = (type(resolve_approach(name)).__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name}: {summary}" if summary else name)
        return 0
    if args.command == "workloads":
        print("arrival processes:")
        for name in arrival_process_names():
            doc = (type(resolve_arrival_process(name)).__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"  {name}: {summary}" if summary else f"  {name}")
        print()
        print("workload spec (REPRO_WORKLOAD / --workload):")
        print("  app=background,ranks=1152,data_mb=45,arrival=burst,approach=file-per-process")
        return 0
    if args.command in ("serve", "bench", "analyze"):
        return int(args.handler(args))

    flags = {knob.field: getattr(args, knob.field) for knob in KNOBS if knob.field and knob.flag}
    scenario = _from_knobs(None, flags)
    specs = EXPERIMENTS[args.experiment]
    # The caller's default backend is back in place when main returns.
    with use_backend(scenario.backend or default_backend()):
        if args.output_dir is not None:
            tables = [spec.build(scenario, args.output_dir) for spec in specs]
        else:
            with tempfile.TemporaryDirectory(prefix="repro-") as output_dir:
                tables = [spec.build(scenario, output_dir) for spec in specs]

    for spec, table in zip(specs, tables, strict=True):
        sys.stdout.write(_render(spec.name, table, args.format, len(specs) > 1))
        if args.check:
            spec.verify(table)
    return 0
