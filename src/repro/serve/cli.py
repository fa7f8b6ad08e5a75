"""The ``python -m repro serve`` subcommand.

A self-contained demonstration and measurement harness for the solve
service: it generates a deterministic stream of *overlapping* solve
requests (``--cells`` unique cells, swept ``--passes`` times, the order
rotated every pass so arrival order visibly cannot matter), drives the
stream through one :class:`~repro.serve.SolveService`, and prints the
throughput and cache accounting.  ``--compare-inline`` additionally
times the same stream through per-request :func:`~repro.engine.solve`
calls, verifies the service answered bit-identically, and reports the
speedup — the cheap local replica of the ``macro.serve.sustained``
benchmark's claim.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
from typing import Any

import numpy as np

from ..bench.timing import time_once
from ..engine import backend_names, machine_names, solve, use_backend
from ..table import Table
from .service import SolveService
from .stream import demo_stream

__all__ = ["add_serve_parser", "run_serve"]


def add_serve_parser(sub: "argparse._SubParsersAction[Any]") -> argparse.ArgumentParser:
    serve = sub.add_parser(
        "serve",
        help="drive an overlapping request stream through the solve service",
        description=(
            "Generate a deterministic stream of overlapping solve requests, run "
            "it through the memoized solve service, and print "
            "throughput and cache accounting."
        ),
    )
    serve.add_argument(
        "--machine", default="grid5000", help=f"one of: {', '.join(machine_names())}"
    )
    serve.add_argument("--cells", type=int, default=16, metavar="N", help="unique solve cells")
    serve.add_argument(
        "--passes", type=int, default=8, metavar="N", help="sweeps over the cell set"
    )
    serve.add_argument("--ranks", type=int, default=256, metavar="N", help="requests per cell")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--backend", choices=backend_names(), default=None)
    serve.add_argument(
        "--compare-inline",
        action="store_true",
        help="also time per-request engine.solve calls and verify bit-identity",
    )
    return serve


def run_serve(args: argparse.Namespace) -> int:
    if args.cells < 1 or args.passes < 1 or args.ranks < 1:
        print("--cells, --passes and --ranks must all be >= 1")
        return 2
    stream = demo_stream(
        args.machine, cells=args.cells, passes=args.passes, ranks=args.ranks, seed=args.seed
    )
    service = SolveService()

    def drain() -> list[Any]:
        for request in stream:
            service.submit(request)
        return service.flush()

    # --backend switches the default for the service; the inline side pins it.
    with nullcontext() if args.backend is None else use_backend(args.backend):
        elapsed, responses = time_once(drain)
    stats = service.stats
    table = Table()
    table.append(
        requests=stats.served,
        unique_cells=len(service.cache),
        solved=stats.solved,
        hit_rate=stats.hit_rate,
        elapsed_s=elapsed,
        requests_per_s=stats.served / elapsed if elapsed > 0 else float("inf"),
    )
    print(table.to_text())

    if not args.compare_inline:
        return 0

    def inline() -> list[Any]:
        return [
            solve(
                request.machine,
                request.batch,
                background=request.background,
                large_writes=request.large_writes,
                backend=args.backend,
            )
            for request in stream
        ]

    inline_elapsed, inline_done = time_once(inline)
    for response, done in zip(responses, inline_done, strict=True):
        if not np.array_equal(response.done, done):
            print("MISMATCH: service and inline solves disagree")
            return 1
    speedup = inline_elapsed / elapsed if elapsed > 0 else float("inf")
    print(
        f"\nbit-identical to inline solving; inline {inline_elapsed:.3f}s, "
        f"service {elapsed:.3f}s ({speedup:.1f}x)"
    )
    return 0
