"""Benchmark entry point for the ``repro`` package.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs one workload against the package in ``src/`` through its public
entry points, checks every op's output, and prints as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``op_p50_s``, ``op_tail_s``, ``peak_rss_mb``,
``success_rate``); with ``--trace 1`` they are the per-layer ones named
in ``BENCHMARK.json``.  See ``perfbench/README.md`` for the workloads.

Every child runs with the ``REPRO_*`` variables removed, so the package
runs its defaults.  At most one child is alive at a time.  Everything the
benchmark writes goes to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from workloads import PAPER_CLI_EXPERIMENTS, cli_args

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Nominal seconds of one pass on a 2-CPU x86 host; a run makes
#: ``ceil(seconds / pass_seconds)`` passes (at least ``MIN_PASSES``), so the
#: op count of a run depends on ``--seconds`` only.
PASS_SECONDS = {
    "paper-cli": 2.5,
    "replicated-sweeps": 1.25,
    "app-interference": 0.6,
    "overlapping-serve": 0.75,
}
#: A traced ``paper-cli`` run calls ``repro.cli.main`` in-process, with no
#: interpreter start-up per op, so its passes are shorter.
TRACED_PASS_SECONDS = {**PASS_SECONDS, "paper-cli": 0.4}
MIN_PASSES = 4

#: Ops a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Fresh interpreters timed for ``setup_s``, and for the import profile.
SETUP_STARTS = 5
IMPORTTIME_STARTS = 3

#: Kill a child after this long; the op then counts as failed.
OP_TIMEOUT_S = 60.0
#: A run still going this long after it started stops without a result.
RUN_DEADLINE = time.monotonic() + 170.0

#: Thread pools of numerical libraries are capped to the one client thread.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

IMPORT_PROBE = "import repro, repro.cli"


class BenchmarkError(RuntimeError):
    """The benchmark could not run the program at all (no result is printed)."""


@dataclass
class Child:
    status: int
    elapsed_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def _inherited(name: str) -> bool:
    """Whether a child keeps the variable ``name`` of this process's environment.

    ``REPRO_*`` variables would override the package's defaults.  ``PYTHON*``
    variables change the interpreter itself: ``PYTHONDONTWRITEBYTECODE``
    makes every start recompile the package, and ``PYTHONOPTIMIZE`` strips
    the asserts that ``--check`` relies on.
    """
    if name == "PYTHONHOME":
        return True
    return not name.startswith(("REPRO_", "PYTHON"))


def hermetic_env() -> tuple[dict[str, str], list[str]]:
    """The children's environment: this process's, cleaned, plus this checkout's ``src``."""
    removed = sorted(name for name in os.environ if not _inherited(name))
    env = {name: value for name, value in os.environ.items() if _inherited(name)}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(OUT / "tmp")
    env.update(THREAD_CAPS)
    return env, removed


def run_child(argv: list[str], env: dict[str, str], timeout: float, name: str) -> Child:
    """Run one child to completion; its own peak RSS comes from ``wait4``."""
    timeout = min(timeout, RUN_DEADLINE - time.monotonic())
    if timeout <= 0:
        raise BenchmarkError("the run did not finish within its time limit")
    out_path = OUT / "tmp" / f"{name}.out"
    err_path = OUT / "tmp" / f"{name}.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    if time.monotonic() >= RUN_DEADLINE:
        raise BenchmarkError("the run did not finish within its time limit")
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        status=proc.returncode,
        elapsed_s=elapsed,
        maxrss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def program_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: ") :]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return None


def fingerprint(digest: str) -> dict[str, Any]:
    try:
        numpy_version: str | None = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "program_sha256": digest,
    }


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of fresh interpreters importing ``repro`` and ``repro.cli``."""
    times = []
    for index in range(SETUP_STARTS):
        child = run_child([sys.executable, "-c", IMPORT_PROBE], env, OP_TIMEOUT_S, f"setup-{index}")
        if child.status != 0:
            raise BenchmarkError(f"importing repro failed:\n{child.stderr[-2000:]}")
        times.append(child.elapsed_s)
    return statistics.median(times)


def measure_imports(env: dict[str, str]) -> dict[str, float]:
    """``cli.import_s`` (repro's own modules) and ``cli.import_numpy_s`` from ``-X importtime``."""
    own, numpy = [], []
    for index in range(IMPORTTIME_STARTS):
        child = run_child(
            [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
            env,
            OP_TIMEOUT_S,
            f"importtime-{index}",
        )
        if child.status != 0:
            raise BenchmarkError(f"importing repro failed:\n{child.stderr[-2000:]}")
        own_us = numpy_us = 0
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:") :].split("|")
            if not fields[0].strip().isdigit():
                continue
            module = fields[2].strip()
            if module == "repro" or module.startswith("repro."):
                own_us += int(fields[0])
            elif module == "numpy":
                numpy_us = int(fields[1])
        own.append(own_us / 1e6)
        numpy.append(numpy_us / 1e6)
    return {"cli.import_s": statistics.median(own), "cli.import_numpy_s": statistics.median(numpy)}


def run_paper_cli(env: dict[str, str], seed: int, passes: int, cache: Path) -> dict[str, Any]:
    """``paper-cli`` untraced: every op is a fresh ``python -m repro run`` process."""
    ops = []
    records = []
    walls = []
    for index in range(passes):
        wall = 0.0
        for experiment in PAPER_CLI_EXPERIMENTS:
            child = run_child(
                [sys.executable, "-m", "repro", *cli_args(experiment, seed)],
                env,
                OP_TIMEOUT_S,
                "paper-cli-op",
            )
            wall += child.elapsed_s
            ops.append(
                {
                    "pass": index,
                    "label": experiment,
                    "latency_s": child.elapsed_s,
                    "maxrss_mb": child.maxrss_mb,
                }
            )
            records.append(
                {
                    "label": experiment,
                    "exit": child.status,
                    "stdout": child.stdout,
                    "stderr": child.stderr[-2000:],
                }
            )
        walls.append(wall)
    ops_path = OUT / "tmp" / "paper-cli-ops.json"
    ops_path.write_text(json.dumps(records))
    checked = run_worker(
        env, ["--workload", "paper-cli", "--seed", str(seed), "--verify", str(ops_path)], cache
    )
    for op, verdict in zip(ops, checked["ops"], strict=True):
        op["problems"] = verdict["problems"]
    return {
        "ops": ops,
        "pass_walls": walls,
        "peak_rss_mb": max(op["maxrss_mb"] for op in ops),
        "config": checked["config"],
    }


def run_worker(env: dict[str, str], args: list[str], cache: Path) -> dict[str, Any]:
    result_path = OUT / "tmp" / "worker-result.json"
    result_path.unlink(missing_ok=True)
    child = run_child(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "worker.py"),
            *args,
            "--cache",
            str(cache),
            "--out",
            str(result_path),
        ],
        env,
        RUN_DEADLINE - time.monotonic(),
        "worker",
    )
    if child.status != 0 or not result_path.is_file():
        raise BenchmarkError(f"worker exited {child.status}:\n{child.stderr[-4000:]}")
    return json.loads(result_path.read_text())


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile leaving ``TAIL_BEYOND`` ops beyond it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_metrics(result: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics per traced pass: the median of times, the mean of counts."""
    passes = result["layers"]
    metrics: dict[str, float] = {}
    for name in sorted(passes[0]):
        values = [summary[name] for summary in passes]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = statistics.fmean(values)
    traced = statistics.median(result["traced_pass_walls"])
    metrics["trace.overhead_s"] = traced - statistics.median(result["pass_walls"])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env, removed = hermetic_env()
    digest = program_digest()
    cache = OUT / "reference" / digest[:16]
    pass_seconds = (TRACED_PASS_SECONDS if args.trace else PASS_SECONDS)[args.workload]
    passes = max(MIN_PASSES, math.ceil(args.seconds / pass_seconds))

    # One untimed start writes the bytecode cache and proves the program imports.
    probe = run_child([sys.executable, "-c", IMPORT_PROBE], env, OP_TIMEOUT_S, "probe")
    if probe.status != 0:
        raise BenchmarkError(f"importing repro failed:\n{probe.stderr[-2000:]}")

    metrics: dict[str, float] = {}
    if args.trace:
        metrics.update(measure_imports(env))
    else:
        metrics["setup_s"] = measure_setup(env)

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.workload == "paper-cli" and not args.trace:
        result = run_paper_cli(env, args.seed, passes, cache)
    else:
        worker_args = [
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--passes",
            str(passes),
            "--trace",
            str(args.trace),
        ]
        if args.trace:
            worker_args += ["--spans", str(spans_path)]
        result = run_worker(env, worker_args, cache)

    ops = result["ops"]
    failures = [problem for op in ops for problem in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    attempted = len(ops)
    tail_percentile = None
    if args.trace:
        metrics.update(layer_metrics(result))
    else:
        latencies = [op["latency_s"] for op in ops]
        metrics["wall_s"] = statistics.median(result["pass_walls"])
        metrics["op_p50_s"] = statistics.median(latencies)
        metrics["op_tail_s"], tail_percentile = tail(latencies)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["success_rate"] = (attempted - failed) / attempted

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops": attempted,
        "tail_percentile": tail_percentile,
        "removed_env": removed,
        "thread_caps": THREAD_CAPS,
        "program": result["config"],
    }
    report = {
        "config": config,
        "fingerprint": fingerprint(digest),
        "failures": failures[:50],
        "metrics": metrics,
        "ops": ops,
    }
    missing = [spec["name"] for spec in declared if spec["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    for problem in failures[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"config": config, "fingerprint": report["fingerprint"]}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
