"""Canonical content-addressed request hashing.

A solve's output is a pure function of ``(machine, batch arrays,
background, large_writes)`` — every registered backend is
cross-validated against the reference, so the backend *name* is
deliberately not part of the identity.  :func:`request_key` digests
exactly those inputs into a sha256 hex string:

* machine fields serialise as sorted-key JSON, each cast to its
  annotated type, so equal machines (``62914560 == 62914560.0``) give
  equal text; shortest-repr float64 round-trips, so the text is
  deterministic across platforms and process restarts — no salted
  Python ``hash()`` anywhere;
* batch arrays are fed to the digest as explicit little-endian bytes,
  with OST ids normalised modulo ``machine.ost_count`` first (the
  solvers only ever see the modded id, so ``ost=400`` and ``ost=64`` on
  a 336-OST machine are the same cell);
* a ``None`` background hashes as its own marker rather than as a zero
  array — the cache never has to assert that the two spellings solve
  bit-identically on every backend.

The key is therefore stable across arrival order, process restarts and
dict insertion order.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import fields

import numpy as np

from ..engine import Machine, RequestBatch
from ..util import FloatArray

__all__ = ["KEY_SCHEMA", "request_key"]

#: Bumped whenever the digest layout changes; part of every digest so a
#: persisted cache from an incompatible layout can never alias a key.
KEY_SCHEMA = "repro-serve-key-v3"


def _array_bytes(array: np.ndarray, dtype: str) -> bytes:
    """``array`` as canonical little-endian bytes of ``dtype``."""
    return np.ascontiguousarray(array, dtype=dtype).tobytes()


@functools.lru_cache(maxsize=64)
def _machine_json(machine: Machine) -> bytes:
    """The machine's canonical sorted-key JSON, cached per equal machine.

    The cast makes the text depend on equality alone, as the cache does,
    so which spelling a process hashed first cannot change a key.
    """
    types = typing.get_type_hints(Machine)
    canonical = {f.name: types[f.name](getattr(machine, f.name)) for f in fields(machine)}
    return json.dumps(canonical, sort_keys=True).encode("utf-8")


@functools.lru_cache(maxsize=256)
def _prefix(machine: Machine, large_writes: bool, n: int, background: bool) -> hashlib._Hash:
    """The sha256 state after the header and machine JSON that every cell of
    this shape starts with; :func:`request_key` copies it, never updates it."""
    header = {"schema": KEY_SCHEMA, "large_writes": large_writes, "n": n, "background": background}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    digest.update(_machine_json(machine))
    return digest


def request_key(
    machine: Machine,
    batch: RequestBatch,
    background: FloatArray | None,
    large_writes: bool,
) -> str:
    """The sha256 content hash identifying one solve cell."""
    digest = _prefix(machine, bool(large_writes), len(batch), background is not None).copy()
    digest.update(_array_bytes(batch.arrival, "<f8"))
    digest.update(_array_bytes(batch.ost % machine.ost_count, "<i8"))
    digest.update(_array_bytes(batch.nbytes, "<f8"))
    if background is not None:
        digest.update(_array_bytes(np.asarray(background), "<f8"))
    return digest.hexdigest()
