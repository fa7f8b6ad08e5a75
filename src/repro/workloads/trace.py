"""Request-trace record and replay (JSONL).

A :class:`Trace` pins everything a composed scenario put on the file
system: the machine's fields, and per iteration each application's
generated :class:`RequestBatch` (arrival/ost/nbytes), the sampled
per-OST background load, and the write-class flag the merged solve used.
Saving it as JSON Lines makes a scenario *replayable bit-for-bit* — no
rng involved on replay — and diffable/greppable by ordinary tools.

File layout (one JSON object per line)::

    {"type": "header", "version": 1, "machine": ..., "machine_fields": {...}, "period": ...,
     "apps": [...], "iterations": N}
    {"type": "solve", "iteration": 0, "large_writes": true, "background": [...]}
    {"type": "batch", "iteration": 0, "app": "sim", "arrival": [...], "ost": [...], "nbytes": [...]}
    ...

A batch line's other keys are ignored, so traces written with a
per-request ``"tag"`` column still load and replay unchanged.

Python's ``json`` round-trips IEEE-754 doubles exactly (shortest-repr),
so a replayed solve sees byte-identical inputs.  ``machine_fields`` lets
a replay rebuild a machine that differs from its registered namesake
(``KRAKEN.with_overrides(ost_count=24)``); traces without it replay on
the registered machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from ..engine import RequestBatch
from ..util import FloatArray

__all__ = ["Trace", "TraceIteration"]

_VERSION = 1


def _write_line(fh: TextIO, record: dict[str, Any]) -> None:
    fh.write(json.dumps(record) + "\n")


@dataclass
class TraceIteration:
    """What one composed iteration put on the OSTs."""

    large_writes: bool
    background: FloatArray
    #: Per-application generated requests, keyed by app name.
    batches: dict[str, RequestBatch] = field(default_factory=dict)


@dataclass
class Trace:
    """A recorded multi-application scenario, replayable exactly."""

    machine: str
    period: float
    apps: tuple[str, ...]
    iterations: list[TraceIteration] = field(default_factory=list)
    #: Every field of the recorded machine (``None``: the registered one).
    machine_fields: dict[str, Any] | None = None

    def __len__(self) -> int:
        return len(self.iterations)

    def save(self, path: str | Path) -> Path:
        """Write the trace as JSON Lines; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            _write_line(
                fh,
                {
                    "type": "header",
                    "version": _VERSION,
                    "machine": self.machine,
                    "machine_fields": self.machine_fields,
                    "period": self.period,
                    "apps": list(self.apps),
                    "iterations": len(self.iterations),
                },
            )
            for index, iteration in enumerate(self.iterations):
                _write_line(
                    fh,
                    {
                        "type": "solve",
                        "iteration": index,
                        "large_writes": iteration.large_writes,
                        "background": [float(x) for x in iteration.background],
                    },
                )
                for app in self.apps:
                    batch = iteration.batches[app]
                    _write_line(
                        fh,
                        {
                            "type": "batch",
                            "iteration": index,
                            "app": app,
                            "arrival": [float(x) for x in batch.arrival],
                            "ost": [int(x) for x in batch.ost],
                            "nbytes": [float(x) for x in batch.nbytes],
                        },
                    )
        return path

    @classmethod
    def load(cls, path: str | Path) -> Trace:
        """Read a trace written by :meth:`save`.

        Every malformed record raises a :class:`ValueError` naming the
        file and the line: invalid JSON, a missing key, batch columns of
        unequal length, or a background that does not cover the recorded
        machine's OSTs.
        """
        path = Path(path)
        header: dict[str, Any] | None = None
        iterations: list[TraceIteration] = []
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    header = _read_record(line, header, iterations)
                except KeyError as exc:
                    key = exc.args[0]
                    raise ValueError(f"{path}:{line_no}: record lacks key {key!r}") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
        if header is None:
            raise ValueError(f"{path}: not a trace file (no header line)")
        if len(iterations) != header["iterations"]:
            raise ValueError(
                f"{path}: header promises {header['iterations']} iterations, "
                f"found {len(iterations)}"
            )
        apps = tuple(header["apps"])
        for index, iteration in enumerate(iterations):
            missing = set(apps) - set(iteration.batches)
            if missing:
                raise ValueError(f"{path}: iteration {index} lacks batches for {sorted(missing)}")
        return cls(
            machine=header["machine"],
            period=float(header["period"]),
            apps=apps,
            iterations=iterations,
            machine_fields=header.get("machine_fields"),
        )


def _read_record(
    line: str, header: dict[str, Any] | None, iterations: list[TraceIteration]
) -> dict[str, Any] | None:
    """Apply one line of a trace file to the iterations read so far.

    Returns the header, which is ``line``'s record when it is the header
    line.  Errors leave out the file and line, which the caller adds.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg} at column {exc.colno})") from None
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be a JSON object, got {type(record).__name__}")
    kind = record.get("type")
    if kind == "header":
        if record.get("version") != _VERSION:
            raise ValueError(f"unsupported trace version {record.get('version')!r}")
        for key in ("machine", "period", "apps", "iterations"):
            if key not in record:
                raise KeyError(key)
        fields = record.get("machine_fields")
        if fields is not None and "ost_count" not in fields:
            raise KeyError("machine_fields.ost_count")
        return record
    if header is None:
        raise ValueError("trace record before header")
    if kind == "solve":
        background = np.asarray(record["background"], dtype=np.float64)
        fields = header.get("machine_fields")
        if fields is not None and background.shape != (fields["ost_count"],):
            raise ValueError(
                f"background must hold one entry per OST of the recorded machine "
                f"({fields['ost_count']}), got shape {background.shape}"
            )
        iterations.append(
            TraceIteration(large_writes=bool(record["large_writes"]), background=background)
        )
    elif kind == "batch":
        if record["iteration"] != len(iterations) - 1:
            raise ValueError(
                f"batch for iteration {record['iteration']} outside iteration "
                f"{len(iterations) - 1}"
            )
        columns = {
            "arrival": np.asarray(record["arrival"], dtype=np.float64),
            "ost": np.asarray(record["ost"], dtype=np.int64),
            "nbytes": np.asarray(record["nbytes"], dtype=np.float64),
        }
        shapes = {name: column.shape for name, column in columns.items()}
        if any(len(shape) != 1 for shape in shapes.values()) or len(set(shapes.values())) != 1:
            raise ValueError(f"batch columns must be flat lists of one length, got shapes {shapes}")
        iterations[-1].batches[record["app"]] = RequestBatch(**columns)
    else:
        raise ValueError(f"unknown trace record {kind!r}")
    return header
