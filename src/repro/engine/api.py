"""Backend registry and the public solver entry points.

Two backends ship by default: ``vectorized`` (numpy, the default) and
``reference`` (the seed implementation, kept as ground truth).  The
engine reads no environment: a front end that takes a backend from
``REPRO_ENGINE`` or ``--backend`` applies it with :func:`use_backend`,
which switches the default for a scope.  One :func:`solve` call can pin
a backend with its ``backend=`` argument; every layer above it (stacked
solves, the replication driver, composition, the solve service) follows
the default.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

from ..util import FloatArray
from .machines import Machine
from .reference import solve_reference
from .requests import RequestBatch
from .vectorized import solve_vectorized

__all__ = [
    "solve",
    "backend_names",
    "register_backend",
    "default_backend",
    "use_backend",
]

Solver = Callable[[Machine, RequestBatch, FloatArray | None, bool], FloatArray]

_BACKENDS: dict[str, Solver] = {
    "vectorized": solve_vectorized,
    "reference": solve_reference,
}

_default_backend = "vectorized"


def register_backend(name: str, solver: Solver, *, replace_existing: bool = False) -> None:
    """Register a solver under ``name`` for selection by string."""
    key = name.lower()
    if not replace_existing and key in _BACKENDS:
        raise ValueError(f"engine backend {name!r} is already registered")
    _BACKENDS[key] = solver


def backend_names() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def default_backend() -> str:
    """The backend used when a call does not pin one."""
    return _default_backend


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Switch the default backend for a scope (front ends, tests, cross-validation)."""
    global _default_backend
    _resolve_backend(name)  # validate eagerly
    previous, _default_backend = _default_backend, name.lower()
    try:
        yield
    finally:
        _default_backend = previous


def _resolve_backend(name: str | None) -> Solver:
    key = (_default_backend if name is None else name).lower()
    try:
        return _BACKENDS[key]
    except KeyError:
        raise ValueError(f"unknown engine backend {key!r}; known: {backend_names()}") from None


def solve(
    machine: Machine,
    batch: RequestBatch,
    *,
    background: FloatArray | None = None,
    large_writes: bool,
    backend: str | None = None,
) -> FloatArray:
    """Completion time of every request in ``batch``, in batch order.

    This is the hot-path entry point: the I/O models hand over a
    struct-of-arrays batch and get a numpy array back, no dicts involved.
    ``background`` holds the extra streams each OST serves: one finite,
    non-negative entry per OST, or ``None`` for a quiet system.  Anything
    else raises a :class:`ValueError` naming the first bad index, because
    the backends would otherwise disagree (or never finish) on it.
    """
    solver = _resolve_backend(backend)
    if background is not None:
        background = _checked_background(machine, background)
    return solver(machine, batch, background, large_writes)


def _checked_background(machine: Machine, background: FloatArray) -> FloatArray:
    """``background`` as a float array, rejected unless every backend can use it."""
    background = np.asarray(background, dtype=np.float64)
    if background.shape != (machine.ost_count,):
        raise ValueError(
            f"background must hold one entry per OST, shape ({machine.ost_count},), "
            f"got shape {background.shape}"
        )
    ok = np.isfinite(background) & (background >= 0.0)
    if not ok.all():
        index = int(np.argmin(ok))
        raise ValueError(f"background[{index}] must be finite and >= 0, got {background[index]}")
    return background

