"""Benchmark lookup: named, parameterized, machine-readable.

A :class:`Benchmark` is a *recipe*: its ``make`` callable performs all
setup (building request batches, drawing rngs) outside the timed region
and returns ``(run, work)`` — the zero-argument callable the harness
times, plus the number of work units one run processes (requests solved,
arrivals drawn), from which :mod:`repro.bench.results` derives
throughput.  The suite is one declared tuple,
:data:`repro.bench.suite.SUITE`, of dotted ``kind.family.variant``
names; the functions here read it, importing it on first use so code
that only times (E5's ``time_once``) loads neither the experiments nor
the service.  Names — never positions — identify benchmarks in results
files, so adding or reordering benchmarks can never mis-pair a baseline
comparison.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

__all__ = ["Benchmark", "KINDS", "resolve_benchmark", "select_benchmarks"]

#: Benchmark granularities, the first part of every name: ``micro`` times
#: one engine primitive, ``macro`` one full experiment sweep.
KINDS = ("micro", "macro")

#: ``make()`` → ``(run, work_units)``; the harness times ``run``.
BenchmarkMaker = Callable[[], tuple[Callable[[], object], float]]


@dataclass(frozen=True)
class Benchmark:
    """A benchmark recipe (setup separated from the timed run)."""

    name: str
    make: BenchmarkMaker
    #: Workload parameters recorded verbatim into the JSON results.
    params: Mapping[str, object]
    #: What ``work`` counts, e.g. ``requests`` or ``arrivals``.
    units: str
    description: str

    @property
    def kind(self) -> str:
        """``micro`` or ``macro``: the first part of the name."""
        return self.name.split(".", 1)[0]


def _suite() -> tuple[Benchmark, ...]:
    from .suite import SUITE

    return SUITE


def resolve_benchmark(name: str) -> Benchmark:
    suite = _suite()
    for bench in suite:
        if bench.name == name:
            return bench
    known = tuple(bench.name for bench in suite)
    raise KeyError(f"unknown benchmark {name!r}; known: {known}")


def select_benchmarks(filters: str | list[str] | None = None) -> list[Benchmark]:
    """The suite's benchmarks, in order, whose name contains any filter.

    ``filters`` are case-insensitive substrings of the dotted name; an
    empty selection is returned as an empty list, never an error, so
    callers decide whether that is a usage problem.
    """
    if isinstance(filters, str):
        filters = [filters]
    return [
        bench
        for bench in _suite()
        if not filters or any(f.lower() in bench.name.lower() for f in filters)
    ]
