"""The benchmark registry: named, parameterized, machine-readable.

A :class:`Benchmark` is a *recipe*: its ``make`` callable performs all
setup (building request batches, drawing rngs) outside the timed region
and returns ``(run, work)`` — the zero-argument callable the harness
times, plus the number of work units one run processes (requests solved,
arrivals drawn), from which :mod:`repro.bench.results` derives
throughput.  Registration follows the package's registry idiom
(machines, approaches, arrival processes): decorate a maker with
:func:`register_benchmark` under a dotted ``kind.family.variant`` name.
Names — never registry positions — identify benchmarks in results files,
so adding or reordering benchmarks can never mis-pair a baseline
comparison.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

__all__ = [
    "Benchmark",
    "KINDS",
    "register_benchmark",
    "benchmark_names",
    "resolve_benchmark",
    "select_benchmarks",
]

#: Benchmark granularities: ``micro`` times one engine primitive, ``macro``
#: one full experiment sweep.
KINDS = ("micro", "macro")

#: ``make()`` → ``(run, work_units)``; the harness times ``run``.
BenchmarkMaker = Callable[[], tuple[Callable[[], object], float]]


@dataclass(frozen=True)
class Benchmark:
    """A registered benchmark recipe (setup separated from the timed run)."""

    name: str
    kind: str
    make: BenchmarkMaker
    #: Workload parameters recorded verbatim into the JSON results.
    params: Mapping[str, object] = field(default_factory=dict)
    #: What ``work`` counts, e.g. ``requests`` or ``arrivals``.
    units: str = "requests"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"benchmark kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "params", dict(self.params))

    def prepare(self) -> tuple[Callable[[], object], float]:
        """Run setup; return the timed callable and its work-unit count."""
        return self.make()


_REGISTRY: dict[str, Benchmark] = {}


def _registry() -> dict[str, Benchmark]:
    """The registry, with the suite (which loads the experiments and the
    solve service) imported on the first lookup rather than with the package."""
    from . import suite  # noqa: F401  (importing registers the benchmark suite)

    return _REGISTRY


def register_benchmark(
    name: str,
    *,
    kind: str,
    params: Mapping[str, object] | None = None,
    units: str = "requests",
    description: str = "",
) -> Callable[[BenchmarkMaker], BenchmarkMaker]:
    """Decorator registering ``make`` as benchmark ``name``."""

    def deco(make: BenchmarkMaker) -> BenchmarkMaker:
        if name in _registry():
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = Benchmark(
            name=name,
            kind=kind,
            make=make,
            params=params or {},
            units=units,
            description=description or (make.__doc__ or "").strip().split("\n")[0],
        )
        return make

    return deco


def benchmark_names() -> tuple[str, ...]:
    """All registered benchmark names, sorted (micro before macro)."""
    return tuple(b.name for b in select_benchmarks())


def resolve_benchmark(name: str) -> Benchmark:
    try:
        return _registry()[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; known: {benchmark_names()}") from None


def select_benchmarks(
    filters: str | list[str] | None = None,
    *,
    kind: str | None = None,
) -> list[Benchmark]:
    """Registered benchmarks matching any substring filter and ``kind``.

    ``filters`` are case-insensitive substrings of the dotted name; an
    empty selection is returned as an empty list, never an error, so
    callers decide whether that is a usage problem.
    """
    if isinstance(filters, str):
        filters = [filters]
    if kind is not None and kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    selected = [
        bench
        for bench in _registry().values()
        if (kind is None or bench.kind == kind)
        and (not filters or any(f.lower() in bench.name.lower() for f in filters))
    ]
    return sorted(selected, key=lambda b: (KINDS.index(b.kind), b.name))
