"""The client process of the in-process workloads, and the output checker.

``run.py`` starts one worker at a time with a hermetic environment.  A
measuring worker imports ``repro``, builds the workload's inputs, runs one
untimed warm-up pass and then the timed passes, and only after them
checks every op's output (against the ``reference`` backend, cached per
seed).  With ``--trace 1`` every second pass runs with the layer spans of
:mod:`spans` installed, so the traced and untraced passes interleave.

    python3 perfbench/worker.py --workload app-interference --seed 1 \\
        --passes 8 --trace 0 --out result.json [--cache DIR] [--spans FILE]
    python3 perfbench/worker.py --workload paper-cli --seed 1 \\
        --verify ops.json --out result.json [--cache DIR]

The second form checks ``paper-cli`` ops that ``run.py`` ran as separate
processes.  The result is one JSON document written to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from spans import Tracer, install, summarize
from workloads import WORKLOADS, Workload


def _effective_config() -> dict[str, Any]:
    """The program's configuration as its own defaults resolve it."""
    from repro import ScenarioConfig
    from repro.engine import default_backend

    scenario = ScenarioConfig.from_env()
    return {
        "backend": scenario.backend or default_backend(),
        "jobs": scenario.jobs,
        "solve_shards": scenario.solve_shards,
        "serve": scenario.serve,
        "serve_workers": scenario.serve_workers,
        "replications": scenario.replications,
    }


def measure(
    workload: Workload, passes: int, traced_mode: bool, spans_path: Path | None
) -> dict[str, Any]:
    """Run the warm-up and ``passes`` timed passes; check outputs afterwards."""
    tracer = Tracer()
    for _, fn in workload.pass_ops():
        fn()

    ops: list[dict[str, Any]] = []
    records: list[Any] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    span_log = []
    for index in range(passes):
        traced = traced_mode and index % 2 == 1
        pass_ops = workload.pass_ops()
        gc.collect()
        uninstall = install(tracer) if traced else None
        tracer.reset()
        wall = 0.0
        for label, fn in pass_ops:
            error = None
            start = time.perf_counter()
            try:
                output = tracer.call("op", fn) if traced else fn()
            except (Exception, SystemExit) as exc:
                # A failed op is counted, not fatal: keep its traceback.
                output = None
                error = f"{label}: raised " + "".join(traceback.format_exception(exc))[-2000:]
            latency = time.perf_counter() - start
            wall += latency
            ops.append({"pass": index, "label": label, "latency_s": latency, "traced": traced})
            records.append(error if error is not None else workload.observe(label, output))
        if uninstall is not None:
            uninstall()
            summary = summarize(tracer)
            summary.update(workload.pass_counters())
            layers.append(summary)
            span_log.append([[s.name, s.start, s.end, s.parent, s.error] for s in tracer.spans])
            traced_walls.append(wall)
        else:
            untraced_walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for op, record in zip(ops, records, strict=True):
        if isinstance(record, str):
            op["problems"] = [record]
        else:
            op["problems"] = workload.verify(op["label"], record)
    if spans_path is not None:
        with spans_path.open("w") as fh:
            for number, spans in enumerate(span_log):
                for span in spans:
                    fh.write(json.dumps([number, *span]) + "\n")
    return {
        "ops": ops,
        "pass_walls": untraced_walls,
        "traced_pass_walls": traced_walls,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb,
    }


def verify_only(workload: Workload, path: Path) -> dict[str, Any]:
    """Check op records produced elsewhere (the ``paper-cli`` processes)."""
    ops = json.loads(path.read_text())
    for op in ops:
        op["problems"] = workload.verify(op["label"], op)
        del op["stdout"]
    return {"ops": ops}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", type=Path, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--verify", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.cache)
    workload.prepare()
    if args.verify is not None:
        result = verify_only(workload, args.verify)
    else:
        result = measure(workload, args.passes, bool(args.trace), args.spans)
    result["config"] = _effective_config()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
