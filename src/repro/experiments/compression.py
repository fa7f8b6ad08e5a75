"""E5 (paper §IV.D): ~600% compression on the dedicated cores, no overhead.

The paper runs a compressing writer plugin on the spare time of the
dedicated cores against CM1 tornado-simulation fields: smooth, localised
disturbances over large quiet backgrounds, which lossless codecs compress
extremely well.  Because the compression happens after the client's
shared-memory copy has returned, the simulation-visible write cost is the
same with and without the plugin — compression is free as far as the
simulation is concerned.

The experiment synthesises a CM1-like field, writes it raw and through
zlib at several levels into ``output_dir``, and reports the achieved ratio
(``raw / compressed * 100``, the paper's "600%" convention) next to the
client-visible cost of each writer.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Sequence
from functools import partial
from typing import cast

import numpy as np

from ..engine import KRAKEN, Machine, resolve_machine
from ..table import Table

__all__ = ["cm1_like_field", "run_compression", "check_compression_shape"]


def cm1_like_field(
    shape: tuple[int, int] = (384, 384),
    disturbances: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """A CM1-proxy 2D field: smooth localised bumps over a quiet background.

    Values below a small threshold are exactly zero (the quiet background a
    tornado simulation spends most of its domain on), which is what gives
    lossless codecs their leverage.
    """
    rng = np.random.default_rng(seed)
    ny, nx = shape
    y, x = np.mgrid[0:ny, 0:nx]
    field = np.zeros(shape, dtype=np.float64)
    for _ in range(disturbances):
        cy, cx = rng.uniform(0, ny), rng.uniform(0, nx)
        sigma = rng.uniform(0.025, 0.05) * min(ny, nx)
        amp = rng.uniform(0.5, 2.0)
        # np.exp's per-CPU loops differ in the last float64 bit; the float32
        # cast below rounds that away (equal bytes on AVX-512 and baseline).
        field += amp * np.exp(  # repro: allow[DET005] same bytes once cast to float32
            -((y - cy) ** 2 + (x - cx) ** 2) / (2 * sigma**2)
        )
    field[field < 1e-2] = 0.0
    # Fine-grained turbulence inside the disturbances only.
    noise = rng.normal(scale=0.01, size=shape)
    field = np.where(field > 0, field + noise, 0.0)
    return field.astype(np.float32)


_CODECS = {"zlib-1": 1, "zlib-6": 6, "zlib-9": 9}


def run_compression(
    output_dir: str,
    field_shape: tuple[int, int] = (384, 384),
    codecs: Sequence[str] = ("zlib-1", "zlib-6", "zlib-9"),
    machine: Machine | str = KRAKEN,
    seed: int = 0,
) -> Table:
    # Timing goes through the blessed harness; imported lazily so that
    # only E5 pays for loading repro.bench.
    from ..bench.timing import time_once

    machine = resolve_machine(machine)
    field = cm1_like_field(shape=field_shape, seed=seed)
    raw = field.tobytes()
    # The client-visible cost is the shared-memory copy, whichever writer
    # runs on the dedicated core afterwards.
    client_write_s = len(raw) / machine.shm_bandwidth

    os.makedirs(output_dir, exist_ok=True)
    table = Table()
    with open(os.path.join(output_dir, "field.raw"), "wb") as fh:
        fh.write(raw)
    table.append(
        writer="raw (no plugin)",
        bytes_out=len(raw),
        client_write_s=client_write_s,
    )
    for codec in codecs:
        try:
            level = _CODECS[codec]
        except KeyError:
            raise ValueError(
                f"unknown codec {codec!r}; known: {sorted(_CODECS)}"
            ) from None
        elapsed, value = time_once(partial(zlib.compress, raw, level))
        compressed = cast(bytes, value)
        with open(os.path.join(output_dir, f"field.{codec}.z"), "wb") as fh:
            fh.write(compressed)
        table.append(
            writer=codec,
            bytes_out=len(compressed),
            client_write_s=client_write_s,
            ratio_percent=100.0 * len(raw) / len(compressed),
            dedicated_core_s=elapsed,
        )
    return table


def check_compression_shape(table: Table) -> None:
    """Assert strong compression with zero simulation-visible overhead."""
    baseline = table.where(writer="raw (no plugin)")[0]
    codec_rows = [row for row in table if "ratio_percent" in row]
    assert codec_rows, "no compressing writer rows"
    for row in codec_rows:
        # Well past 2x on CM1-like data, towards the paper's ~600%.
        assert row["ratio_percent"] > 200.0, row.as_dict()
        # No overhead on the simulation: the client-visible cost is the
        # same shared-memory copy as the raw writer's.
        assert abs(row["client_write_s"] - baseline["client_write_s"]) < 1e-9
        # And the dedicated core pays for it comfortably inside its spare
        # time (E4: tens to hundreds of idle seconds per iteration).
        assert row["dedicated_core_s"] < 5.0, row.as_dict()
        assert row["bytes_out"] < baseline["bytes_out"], row.as_dict()
