"""The benchmark's four workloads: inputs derived from the seed, ops, and checks.

Every workload is a closed loop driven by one client: an *op* starts only
after the previous one returned.  A *pass* is the workload's fixed work,
a list of ops; a run repeats it a fixed number of times.  Every input
comes from the workload seed through :func:`derive_seed`.  The passes of
a run replay the same inputs, so reference outputs are computed once per
run and cached on disk per seed; ``overlapping-serve`` draws a new stream
per pass from one fixed universe of cells.

Only the standard library is imported at module level: ``run.py`` reads
the constants here without importing numpy or ``repro``; the workload
classes import both when a worker builds one.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
from collections.abc import Callable
from contextlib import redirect_stdout
from pathlib import Path
from typing import Any

from check import ATOL, RTOL, compare_rows, compare_tables, parse_tables

#: The experiments ``paper-cli`` runs, one process each, in this order.
PAPER_CLI_EXPERIMENTS = ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9")

#: The weak-scaling ladder with the paper's 9216-rank point.
FULL_LADDER = (576, 1152, 2304, 9216)

#: Replications per ``replicated-sweeps`` runner call.
REPLICATIONS = 30

#: ``app-interference`` calls per pass, each on its own derived seed.
APP_CALLS_PER_PASS = 4

#: ``overlapping-serve`` stream shape: the universe of distinct cells, the
#: requests per pass drawn from it, the submit chunk, writes per cell, and
#: the Zipf exponent of cell popularity (hit rate about 0.9).
SERVE_CELLS = 1536
SERVE_REQUESTS = 12288
SERVE_CHUNK = 64
SERVE_WRITES = 128
SERVE_ZIPF = 1.1

#: What the serve workload reads after a pass (0 where no service ran).
SERVE_COUNTERS = (
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_entries",
    "serve.hit_rate",
    "serve.coalesced",
    "serve.solved_cells",
    "serve.served",
    "serve.repeat_share",
)

Op = tuple[str, Callable[[], Any]]
#: An experiment-runner call and the shape checks its table must pass.
RunnerCall = tuple[Callable[[], Any], list[Callable[[Any], None]]]


def derive_seed(seed: int, *labels: str) -> int:
    """A 32-bit seed that is a pure function of the workload seed and labels."""
    text = json.dumps([seed, *labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def cli_args(experiment: str, seed: int) -> list[str]:
    """The ``python -m repro`` arguments of one ``paper-cli`` op."""
    return [
        "run",
        experiment,
        "--full-scale",
        "--check",
        "--format",
        "json",
        "--seed",
        str(derive_seed(seed, "paper-cli", experiment)),
    ]


def _plain(value: Any) -> Any:
    """A numpy scalar as the Python number it holds; anything else as is."""
    return value.item() if hasattr(value, "item") else value


def plain_rows(table: Any) -> list[dict[str, Any]]:
    """A table's rows as JSON-ready dicts, without calling its renderers."""
    return [{key: _plain(value) for key, value in row.as_dict().items()} for row in table]


class Workload:
    """What a worker needs from a workload."""

    name = "?"

    def __init__(self, seed: int, cache_dir: Path | None) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        self._references: dict[str, Any] = {}

    def prepare(self) -> None:
        """Build the inputs (untimed)."""

    def pass_ops(self) -> list[Op]:
        """The ops of the next pass, fresh state included (untimed)."""
        raise NotImplementedError

    def observe(self, label: str, output: Any) -> Any:
        """Reduce one op's output to a small JSON-ready record (untimed)."""
        raise NotImplementedError

    def verify(self, label: str, record: Any) -> list[str]:
        """Every problem with one op's record; runs after the timed passes."""
        raise NotImplementedError

    def pass_counters(self) -> dict[str, float]:
        """Counts read from the service the last pass drove."""
        return dict.fromkeys(SERVE_COUNTERS, 0)

    def reference(self, label: str, compute: Callable[[], Any]) -> Any:
        """``compute()``, cached in memory and on disk per seed and label."""
        if label not in self._references:
            path = None
            if self.cache_dir is not None:
                path = self.cache_dir / f"{self.name}-{self.seed}-{label}.json"
            if path is not None and path.is_file():
                self._references[label] = json.loads(path.read_text())
            else:
                self._references[label] = compute()
                if path is not None:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    partial = path.with_name(path.name + ".partial")
                    partial.write_text(json.dumps(self._references[label]))
                    partial.replace(path)
        return self._references[label]


class PaperCli(Workload):
    """E1-E9 through ``repro.cli.main``.

    A traced run calls it in-process.  An untraced run starts one process
    per op from ``run.py``, and a worker checks those processes' output.
    """

    name = "paper-cli"

    def pass_ops(self) -> list[Op]:
        return [
            (experiment, functools.partial(self._main, cli_args(experiment, self.seed)))
            for experiment in PAPER_CLI_EXPERIMENTS
        ]

    @staticmethod
    def _main(argv: list[str]) -> tuple[int, str]:
        import repro.cli

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = repro.cli.main(argv)
        return int(code), buffer.getvalue()

    def observe(self, label: str, output: Any) -> Any:
        code, stdout = output
        return {"exit": code, "stdout": stdout}

    def verify(self, label: str, record: Any) -> list[str]:
        if record["exit"] != 0:
            return [f"{label}: exit status {record['exit']}: {record.get('stderr', '')[-300:]}"]
        try:
            tables = parse_tables(record["stdout"])
        except ValueError as exc:
            return [f"{label}: unparsable output ({exc})"]
        expected = self.reference(label, functools.partial(self._reference_tables, label))
        return compare_tables(tables, expected, label)

    def _reference_tables(self, label: str) -> dict[str, Any]:
        from repro.engine import use_backend

        with use_backend("reference"):
            code, stdout = self._main([*cli_args(label, self.seed), "--backend", "reference"])
        if code != 0:
            raise RuntimeError(f"reference run of {label} exited {code}")
        return parse_tables(stdout)


class RunnerWorkload(Workload):
    """Ops that are experiment-runner calls returning a table.

    An op fails its check if the experiment's own ``check_*_shape``
    rejects the table, or if the table disagrees with the same call on
    the ``reference`` backend.
    """

    def runner_calls(self) -> dict[str, RunnerCall]:
        """``label -> (call, shape checks)``, in op order."""
        raise NotImplementedError

    def prepare(self) -> None:
        self._calls = self.runner_calls()

    def pass_ops(self) -> list[Op]:
        return [(label, call) for label, (call, _) in self._calls.items()]

    def observe(self, label: str, output: Any) -> Any:
        problems = []
        for check in self._calls[label][1]:
            try:
                check(output)
            except AssertionError as exc:
                problems.append(f"{label}: {check.__name__} failed: {exc}")
        return {"rows": plain_rows(output), "shape": problems}

    def verify(self, label: str, record: Any) -> list[str]:
        expected = self.reference(label, functools.partial(self._reference_rows, label))
        return record["shape"] + compare_rows(record["rows"], expected, label)

    def _reference_rows(self, label: str) -> list[dict[str, Any]]:
        from repro.engine import use_backend

        with use_backend("reference"):
            return plain_rows(self._calls[label][0]())


class ReplicatedSweeps(RunnerWorkload):
    """Four replicated runner calls that go through the stacked solve path."""

    name = "replicated-sweeps"
    labels = ("e1", "e2", "e3", "e4")

    def runner_calls(self) -> dict[str, RunnerCall]:
        from repro import experiments as ex

        seed = {label: derive_seed(self.seed, self.name, label) for label in self.labels}
        reps = REPLICATIONS
        # The lambdas look the runners up per call, so a traced pass sees
        # the tracer's bindings.
        return {
            "e1": (
                lambda: ex.run_weak_scaling(scales=FULL_LADDER, seed=seed["e1"], replications=reps),
                [ex.check_scaling_shape],
            ),
            "e2": (
                lambda: ex.run_variability(ranks=2304, seed=seed["e2"], replications=reps),
                [ex.check_variability_shape, ex.check_variability_statistics],
            ),
            "e3": (
                lambda: ex.run_throughput(ranks=9216, seed=seed["e3"], replications=reps),
                [ex.check_throughput_shape],
            ),
            "e4": (
                lambda: ex.run_spare_time(scales=FULL_LADDER, seed=seed["e4"], replications=reps),
                [ex.check_spare_time_shape],
            ),
        }


class AppInterference(RunnerWorkload):
    """E9 runner calls: merged mixed-size staggered batches under bursty contention."""

    name = "app-interference"

    def runner_calls(self) -> dict[str, RunnerCall]:
        from repro import experiments as ex

        calls: dict[str, RunnerCall] = {}
        for index in range(APP_CALLS_PER_PASS):
            seed = derive_seed(self.seed, self.name, str(index))
            calls[f"e9-{index}"] = (
                functools.partial(self._run, seed),
                [ex.check_app_interference_shape],
            )
        return calls

    @staticmethod
    def _run(seed: int) -> Any:
        from repro import experiments as ex

        # Looked up per call, so a traced pass sees the tracer's binding.
        return ex.run_app_interference(ranks=2304, iterations=4, seed=seed)


class OverlappingServe(Workload):
    """Skewed streams of small staggered cells, one fresh ``SolveService`` per pass.

    The universe of cells is fixed for the run.  Every pass draws its own
    stream from it (a new popularity ranking), so a run's early,
    miss-heavy flushes cover many stream compositions rather than one.
    """

    name = "overlapping-serve"

    def prepare(self) -> None:
        import numpy as np
        from repro.engine import RequestBatch, resolve_machine, solve
        from repro.util import MB

        rng = np.random.default_rng(derive_seed(self.seed, self.name, "cells"))
        self._machine = resolve_machine("grid5000")
        self._cells: list[tuple[Any, Any, Any, bool]] = []
        # The service's contract: each response equals a per-request solve
        # on the default backend, bit for bit.
        self._expected: list[Any] = []
        for index in range(SERVE_CELLS):
            arrival = np.sort(rng.uniform(0.0, 2.0, SERVE_WRITES))
            ost = rng.integers(0, self._machine.ost_count, SERVE_WRITES)
            nbytes = rng.uniform(8.0, 64.0, SERVE_WRITES) * MB
            large = bool(index % 2)
            self._cells.append((arrival, ost, nbytes, large))
            batch = RequestBatch(arrival, ost, nbytes)
            self._expected.append(solve(self._machine, batch, large_writes=large))
        self._passes = 0
        self._stream: list[int] = []
        self._service: Any = None

    def _draw_stream(self, number: int) -> list[int]:
        """Pass ``number``'s requests: Zipf-like popularity over a random ranking."""
        import numpy as np

        rng = np.random.default_rng(derive_seed(self.seed, self.name, "stream", str(number)))
        weights = 1.0 / np.arange(1, SERVE_CELLS + 1) ** SERVE_ZIPF
        popularity = np.empty(SERVE_CELLS)
        popularity[rng.permutation(SERVE_CELLS)] = weights / weights.sum()
        return [int(i) for i in rng.choice(SERVE_CELLS, size=SERVE_REQUESTS, p=popularity)]

    def pass_ops(self) -> list[Op]:
        from repro.engine import RequestBatch
        from repro.serve import SolveRequest, SolveService

        self._stream = self._draw_stream(self._passes)
        self._passes += 1
        # Fresh request objects every pass, as a client would send them, so
        # the content hash is computed again rather than read from a memo.
        requests = []
        for cell in self._stream:
            arrival, ost, nbytes, large = self._cells[cell]
            batch = RequestBatch(arrival, ost, nbytes)
            requests.append(SolveRequest(self._machine, batch, large_writes=large))
        self._service = SolveService()
        ops: list[Op] = []
        for start in range(0, len(requests), SERVE_CHUNK):
            stop = start + SERVE_CHUNK
            flush = functools.partial(
                _submit_flush, self._service, requests[start:stop], self._stream[start:stop]
            )
            ops.append((f"flush-{start // SERVE_CHUNK}", flush))
        return ops

    def observe(self, label: str, output: Any) -> Any:
        import numpy as np

        cells, responses = output
        problems = []
        if len(responses) != len(cells):
            problems.append(f"{label}: {len(responses)} responses for {len(cells)} requests")
        for position, (cell, response) in enumerate(zip(cells, responses, strict=False)):
            expected = self._expected[cell]
            if response.done.dtype != expected.dtype or not np.array_equal(response.done, expected):
                problems.append(f"{label} request {position} (cell {cell}) differs from solve()")
        return {"cells": cells, "problems": problems}

    def verify(self, label: str, record: Any) -> list[str]:
        disagree = set(self.reference("cells", self._reference_disagreements))
        bad = sorted(disagree.intersection(record["cells"]))
        return record["problems"] + [f"{label} cell {cell} differs from reference" for cell in bad]

    def _reference_disagreements(self) -> list[int]:
        """The cells whose default-backend solve disagrees with ``reference``."""
        import numpy as np
        from repro.engine import RequestBatch, solve

        bad = []
        for cell, expected in enumerate(self._expected):
            arrival, ost, nbytes, large = self._cells[cell]
            batch = RequestBatch(arrival, ost, nbytes)
            reference = solve(self._machine, batch, large_writes=large, backend="reference")
            if not np.allclose(expected, reference, rtol=RTOL, atol=ATOL):
                bad.append(cell)
        return bad

    def pass_counters(self) -> dict[str, float]:
        stats = self._service.stats
        return {
            "serve.cache_hits": stats.cache.hits,
            "serve.cache_misses": stats.cache.misses,
            "serve.cache_entries": stats.cache.entries,
            "serve.hit_rate": stats.hit_rate,
            "serve.coalesced": stats.coalesced,
            "serve.solved_cells": stats.solved,
            "serve.served": stats.served,
            "serve.repeat_share": 1.0 - len(set(self._stream)) / len(self._stream),
        }


def _submit_flush(service: Any, chunk: list[Any], cells: list[int]) -> tuple[list[int], list[Any]]:
    """One ``overlapping-serve`` op: submit a chunk, then flush."""
    for request in chunk:
        service.submit(request)
    return cells, service.flush()


#: The workload classes by name.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperCli, ReplicatedSweeps, AppInterference, OverlappingServe)
}
