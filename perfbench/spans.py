"""Out-of-package tracing: spans around the calls into each layer of ``repro``.

The tracer never edits the package.  :func:`install` wraps the public
entry points of every layer from outside and :func:`uninstall` puts the
originals back:

* the ``vectorized`` engine backend, re-registered through
  ``register_backend(..., replace_existing=True)`` so every ``solve`` /
  ``solve_many`` / serve path is seen;
* class methods (``RequestBatch.lanes``, every approach's
  ``prepare_iteration`` / ``plan_iteration`` and the ``finalize`` they
  return, every arrival process's ``sample``, ``SolveRequest.key``,
  ``SolveService.flush``, the ``Table`` renderers);
* functions imported by name (``merge_batches``, ``split_by_segment``,
  ``solve_many``, ``coalesce``, ``reduce_replications``,
  ``run_composition``, the experiment runners, ``repro.cli.main``): every
  module binding that holds the same object is replaced.

Spans are ``(name, start, end, parent, nested, error)`` records kept in
memory.  A span's self time is its duration minus its direct children's.
Input properties (write classes, lane counts and depths) are computed in
the backend wrapper with the tracer clock paused, so no span pays for
them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Layers whose spans the tracer records (the first dotted part of a span name).
LAYERS = ("cli", "experiments", "io_models", "workloads", "engine", "serve", "stats", "table")

_WRAPPED = "_perfbench_original"


@dataclasses.dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, ``-1`` at the root.
    parent: int
    #: Whether a span of the same name encloses this one (recursion).
    nested: bool
    #: Whether the call raised.
    error: bool = False


class Tracer:
    """An in-memory span and counter recorder on a pausable clock."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._paused = 0.0

    def now(self) -> float:
        """``perf_counter`` minus every paused interval so far."""
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Remove the enclosed bookkeeping from every open span's duration."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return self._depth.get(name, 0) > 0

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record_max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        depth = self._depth.get(name, 0)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.now(), 0.0, parent, depth > 0)
        self.spans.append(span)
        self._stack.append(index)
        self._depth[name] = depth + 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self.now()
            self._stack.pop()
            self._depth[name] = depth

    def reset(self) -> None:
        """Forget every span and counter (between passes)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans = []
        self.counters = {}
        self._paused = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, *args, **kwargs)

    setattr(traced, _WRAPPED, fn)
    return traced


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original: object, replacement: object) -> None:
        """Replace every ``repro`` module binding of ``original``."""
        for module_name in sorted(sys.modules):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            module = sys.modules[module_name]
            for attr, value in sorted(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _subclasses(cls: type) -> list[type]:
    found: list[type] = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _classify(tracer: Tracer, machine: Any, batch: Any) -> None:
    """Count the write classes and lane shape of one solved batch."""
    import numpy as np

    n = len(batch)
    if n == 0:
        return
    arrival = np.asarray(batch.arrival)
    nbytes = np.asarray(batch.nbytes)
    if bool(np.all(arrival == arrival[0])):
        kind = "simultaneous"
    elif bool(np.all(nbytes == nbytes[0])):
        kind = "staggered_equal"
    else:
        kind = "staggered_mixed"
    depths = np.bincount(np.asarray(batch.ost) % machine.ost_count)
    tracer.count("engine.writes", n)
    tracer.count(f"engine.writes.{kind}", n)
    tracer.count("engine.lanes", int(np.count_nonzero(depths)))
    tracer.record_max("engine.lane_depth_max", int(depths.max()))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that undoes it."""
    import repro.cli
    import repro.experiments
    from repro.engine import RequestBatch, register_backend
    from repro.engine import vectorized as vectorized_module
    from repro.engine.batching import solve_many
    from repro.engine.requests import merge_batches, split_by_segment
    from repro.io_models import IOApproach
    from repro.serve.coalesce import coalesce
    from repro.serve.request import SolveRequest
    from repro.serve.service import SolveService
    from repro.stats.summary import reduce_replications
    from repro.table import Table
    from repro.workloads.arrivals import ArrivalProcess
    from repro.workloads.compose import run_composition

    patches = _Patches()

    solve_vectorized = vectorized_module.solve_vectorized

    def traced_backend(machine: Any, batch: Any, background: Any, large_writes: bool) -> Any:
        with tracer.paused():
            _classify(tracer, machine, batch)
        return tracer.call(
            "engine.solve", solve_vectorized, machine, batch, background, large_writes
        )

    register_backend("vectorized", traced_backend, replace_existing=True)

    def traced_solve_many(machine: Any, batches: Any, **kwargs: Any) -> Any:
        batches = list(batches)
        if not tracer.inside("engine.stack"):
            tracer.count("engine.stacked_batches", len(batches))
        return tracer.call("engine.stack", solve_many, machine, batches, **kwargs)

    setattr(traced_solve_many, _WRAPPED, solve_many)
    patches.rebind(solve_many, traced_solve_many)
    patches.rebind(merge_batches, _wrap(tracer, "engine.merge", merge_batches))
    patches.rebind(split_by_segment, _wrap(tracer, "engine.split", split_by_segment))
    patches.set(RequestBatch, "lanes", _wrap(tracer, "engine.lanes", RequestBatch.lanes))

    for cls in _subclasses(IOApproach):
        for method in ("prepare_iteration", "plan_iteration"):
            if method in vars(cls):
                patches.set(cls, method, _traced_planner(tracer, vars(cls)[method]))

    for cls in _subclasses(ArrivalProcess):
        if "sample" in vars(cls):
            patches.set(cls, "sample", _traced_sampler(tracer, vars(cls)["sample"]))
    patches.rebind(run_composition, _wrap(tracer, "workloads.compose", run_composition))

    patches.set(SolveRequest, "key", _wrap(tracer, "serve.key", SolveRequest.key))
    patches.set(SolveService, "flush", _wrap(tracer, "serve.flush", SolveService.flush))
    patches.rebind(coalesce, _wrap(tracer, "serve.coalesce", coalesce))

    patches.rebind(reduce_replications, _wrap(tracer, "stats.reduce", reduce_replications))

    for renderer in ("to_text", "to_csv", "to_json"):
        patches.set(Table, renderer, _traced_render(tracer, getattr(Table, renderer)))

    for runner in sorted(repro.experiments.__all__):
        if runner.startswith("run_"):
            original = getattr(repro.experiments, runner)
            patches.rebind(original, _wrap(tracer, f"experiments.{runner}", original))
    patches.rebind(repro.cli.main, _wrap(tracer, "cli.main", repro.cli.main))

    def uninstall() -> None:
        register_backend("vectorized", solve_vectorized, replace_existing=True)
        patches.undo()

    return uninstall


def _traced_planner(tracer: Tracer, method: Callable[..., Any]) -> Callable[..., Any]:
    """Span ``prepare_iteration``/``plan_iteration`` and the ``finalize`` it returns."""

    @functools.wraps(method)
    def traced(*args: Any, **kwargs: Any) -> Any:
        plan = tracer.call("io_models.prepare", method, *args, **kwargs)
        if hasattr(plan.finalize, _WRAPPED):
            return plan
        return dataclasses.replace(
            plan, finalize=_wrap(tracer, "io_models.finalize", plan.finalize)
        )

    return traced


def _traced_sampler(tracer: Tracer, method: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(method)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        out = tracer.call("workloads.arrivals", method, self, *args, **kwargs)
        tracer.count("workloads.arrival_calls")
        tracer.count("workloads.arrivals", len(out))
        tracer.count(f"workloads.arrivals.{self.name}", len(out))
        return out

    return traced


def _traced_render(tracer: Tracer, method: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(method)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.count("table.rows", len(self))
        return tracer.call("table.render", method, self, *args, **kwargs)

    return traced


#: Inclusive span time per metric: the span name each ``*_s`` metric sums.
_INCLUSIVE = {
    "cli.main_s": "cli.main",
    "engine.solve_s": "engine.solve",
    "engine.lanes_s": "engine.lanes",
    "engine.stack_s": "engine.stack",
    "engine.merge_s": "engine.merge",
    "engine.split_s": "engine.split",
    "io_models.prepare_s": "io_models.prepare",
    "io_models.finalize_s": "io_models.finalize",
    "stats.reduce_s": "stats.reduce",
    "workloads.arrivals_s": "workloads.arrivals",
    "workloads.compose_s": "workloads.compose",
    "serve.key_s": "serve.key",
    "serve.flush_s": "serve.flush",
    "serve.coalesce_s": "serve.coalesce",
    "table.render_s": "table.render",
}

#: Call counts (outermost spans only) per metric.
_CALLS = {
    "cli.calls": "cli.main",
    "engine.solve_calls": "engine.solve",
    "engine.lanes_calls": "engine.lanes",
    "engine.merge_calls": "engine.merge",
    "engine.split_calls": "engine.split",
    "io_models.prepare_calls": "io_models.prepare",
    "io_models.finalize_calls": "io_models.finalize",
    "stats.reduce_calls": "stats.reduce",
    "workloads.compose_calls": "workloads.compose",
    "serve.keys": "serve.key",
    "serve.flushes": "serve.flush",
}

#: Counters the wrappers bump, reported as they are (0 when never bumped).
COUNTERS = (
    "engine.writes",
    "engine.writes.simultaneous",
    "engine.writes.staggered_equal",
    "engine.writes.staggered_mixed",
    "engine.lanes",
    "engine.lane_depth_max",
    "engine.stacked_batches",
    "workloads.arrival_calls",
    "workloads.arrivals",
    "workloads.arrivals.burst",
    "table.rows",
)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since the last reset."""
    spans = tracer.spans
    own = self_times(spans)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    errors: dict[str, int] = {}
    for span, self_s in zip(spans, own, strict=True):
        layer = span.name.split(".", 1)[0]
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + self_s
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
        if span.error:
            errors[layer] = errors.get(layer, 0) + 1
        if not span.nested:
            inclusive[span.name] = inclusive.get(span.name, 0.0) + (span.end - span.start)
            calls[span.name] = calls.get(span.name, 0) + 1

    out: dict[str, float] = {}
    for metric, name in _INCLUSIVE.items():
        out[metric] = inclusive.get(name, 0.0)
    for metric, name in _CALLS.items():
        out[metric] = calls.get(name, 0)
    for counter in COUNTERS:
        out[counter] = tracer.counters.get(counter, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
        out[f"{layer}.errors"] = errors.get(layer, 0)
    out["experiments.calls"] = sum(
        count for name, count in calls.items() if name.startswith("experiments.")
    )
    out["workloads.compose_self_s"] = self_by_name.get("workloads.compose", 0.0)
    out["serve.flush_self_s"] = self_by_name.get("serve.flush", 0.0)
    writes = out["engine.writes"]
    lanes = out["engine.lanes"]
    out["engine.lane_depth_mean"] = writes / lanes if lanes else 0.0
    for kind in ("simultaneous", "staggered_equal", "staggered_mixed"):
        out[f"engine.share.{kind}"] = out[f"engine.writes.{kind}"] / writes if writes else 0.0
    out["trace.uncovered_s"] = self_by_name.get("op", 0.0)
    out["trace.spans"] = len(spans)
    return out
