"""Backend registry and the public solver entry points.

Two backends ship by default: ``vectorized`` (numpy, the default) and
``reference`` (the seed implementation, kept as ground truth).  The
active default is ``vectorized`` unless the ``REPRO_ENGINE`` environment
variable or :func:`set_default_backend` says otherwise.  One
:func:`solve` call can pin a backend with its ``backend=`` argument;
every layer above it (stacked solves, the replication driver,
composition, the solve service) follows the default, which
:func:`use_backend` switches for a scope.
"""

from __future__ import annotations

import os
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
    "set_default_backend",
    "use_backend",
]

Solver = Callable[[Machine, RequestBatch, FloatArray | None, bool], FloatArray]

_BACKENDS: dict[str, Solver] = {
    "vectorized": solve_vectorized,
    "reference": solve_reference,
}

_default_backend = os.environ.get("REPRO_ENGINE", "vectorized")


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


def set_default_backend(name: str) -> None:
    """Make ``name`` the process-wide default backend."""
    global _default_backend
    _resolve_backend(name)  # validate eagerly
    _default_backend = name.lower()


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the default backend (tests, cross-validation)."""
    global _default_backend
    previous = _default_backend
    set_default_backend(name)
    try:
        yield
    finally:
        # Restored as it was: an unknown REPRO_ENGINE fails at its next use.
        _default_backend = previous


def _resolve_backend(name: str | None) -> Solver:
    key = (_default_backend if name is None else name).lower()
    try:
        return _BACKENDS[key]
    except KeyError:
        known = backend_names()
        if name is None:
            # set_default_backend validates its input, so an unknown
            # default can only have come from the environment.
            raise ValueError(
                f"REPRO_ENGINE must name a backend {known}, got {_default_backend!r}"
            ) from None
        raise ValueError(f"unknown engine backend {key!r}; known: {known}") from None


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

