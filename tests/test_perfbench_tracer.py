"""The names perfbench's tracer wraps must exist and come back unwrapped.

``perfbench/spans.py`` imports engine, serve and workload entry points by
module path and rebinds them while a ``--trace 1`` run is active.  A
rename in the package would otherwise surface only in such a run; this
test installs the tracer around one stacked solve and one service flush,
checks what it counted, and checks that uninstalling restores every
original.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

import repro.engine
import repro.engine.api
import repro.engine.batching
from repro.engine import GRID5000, KRAKEN, RequestBatch
from repro.engine.vectorized import solve_vectorized
from repro.serve import SolveRequest, SolveService
from repro.util import MB

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[spec.name]
        raise
    return module


def test_tracer_counts_a_stacked_solve_and_a_flush_then_restores_every_name():
    spans = _load_spans()
    lanes = RequestBatch.lanes
    solve_many = repro.engine.batching.solve_many
    staggered = RequestBatch(arrival=[0.0, 0.5, 1.0], ost=[0, 0, 1], nbytes=[MB, 2 * MB, MB])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        repro.engine.solve_many(KRAKEN, [staggered, staggered], large_writes=False)
        service = SolveService()
        service.submit(SolveRequest(GRID5000, staggered))
        service.flush()
        counts = spans.summarize(tracer)
    finally:
        uninstall()
    assert counts["engine.stacked_batches"] == 3
    assert counts["engine.solve_calls"] == 2
    assert counts["engine.lanes_calls"] == 2
    assert counts["engine.writes"] == 9
    assert counts["serve.keys"] == 1
    assert counts["serve.flushes"] == 1
    assert counts["engine.errors"] == counts["serve.errors"] == 0
    assert RequestBatch.lanes is lanes
    assert repro.engine.batching.solve_many is solve_many
    assert repro.engine.solve_many is solve_many
    assert repro.engine.api._BACKENDS["vectorized"] is solve_vectorized
    # Nothing is traced once the tracer is out.
    tracer.reset()
    np.testing.assert_array_equal(
        repro.engine.solve_many(KRAKEN, [staggered], large_writes=False)[0],
        repro.engine.solve(KRAKEN, staggered, large_writes=False),
    )
    assert tracer.spans == []
