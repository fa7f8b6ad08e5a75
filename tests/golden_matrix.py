"""The committed output golden: what the simulator returns, value by value.

``golden_matrix.jsonl`` (beside this file) holds one JSON record per line,
each a ``path`` and the ``values`` found there:

* the CLI matrix: ``python -m repro run eN --format json --check`` for
  e1-e9 x seeds 0/7 x default/``--full-scale`` x ``--replications`` 1/3,
  run through :func:`repro.cli.main` in this process.  A cell's record
  holds its exit status, and each table row it prints is one record of
  its own.  E5's ``dedicated_core_s`` is left out: it times real zlib
  on the host.
* every registered approach's draws: four calls at 96 ranks on kraken
  (``prepare_iteration`` under ``DEFAULT_INTERFERENCE`` and under its
  default ``NO_INTERFERENCE``, ``plan_iteration`` with and without
  arrivals), each from a fresh generator.  A call's record holds the
  batch columns, the background, the result finalized from a solve of
  the batch and the generator's next ``random()``, which pins how many
  draws the call consumed.  No CLI cell runs dedicated-nodes, so this is
  what pins its draw order.

``test_golden_matrix.py`` re-runs both and compares them with the file:
strings, integers, exit statuses and floats all compare exactly.  The
file changes only through one command, which rewrites it and prints
every value that moved::

    PYTHONPATH=src python tests/golden_matrix.py --write

Without ``--write`` the command only reports what moved, and exits 1 if
anything did.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

from repro.cli import main
from repro.engine import KRAKEN, solve, use_backend
from repro.experiments import EXPERIMENTS
from repro.experiments._driver import DEFAULT_INTERFERENCE
from repro.io_models import approach_names, resolve_approach
from repro.util import MB

GOLDEN = Path(__file__).with_name("golden_matrix.jsonl")

SEEDS = (0, 7)
REPLICATIONS = (1, 3)
#: Host-timed columns, per table: they can never repeat bit for bit.
HOST_TIMED = {"compression": ("dedicated_core_s",)}

DRAW_RANKS = 96
DRAW_SEED = 5

Record = dict[str, Any]
Key = tuple[Any, ...]


@contextlib.contextmanager
def hermetic() -> Iterator[None]:
    """No ``REPRO_*`` variable set and the vectorized backend pinned."""
    saved = {name: os.environ.pop(name) for name in list(os.environ) if name.startswith("REPRO_")}
    try:
        with use_backend("vectorized"):
            yield
    finally:
        os.environ.update(saved)


def cli_cells() -> Iterator[tuple[str, list[str]]]:
    """Every matrix cell's name and argv, in a fixed order."""
    for experiment in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
        for seed in SEEDS:
            for full_scale in (False, True):
                for reps in REPLICATIONS:
                    args = [experiment, "--seed", str(seed)]
                    args += ["--full-scale"] if full_scale else []
                    args += ["--replications", str(reps)]
                    yield " ".join(args), ["run", *args, "--format", "json", "--check"]


def _run_cell(argv: list[str]) -> tuple[int, dict[str, list[Record]]]:
    """A cell's exit status and its tables, parsed from what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            status = main(argv)
        except AssertionError:
            # A failed --check: the command exits 1 after printing the table.
            status = 1
    names = [spec.name for spec in EXPERIMENTS[argv[1]]]
    text = out.getvalue()
    if len(names) == 1:
        bodies = [text]
    else:
        # Several tables print as "# <name>" lines, each before its JSON;
        # a failed check stops the command before the next table prints.
        parts = re.split(r"^# (\S+)\n", text, flags=re.MULTILINE)
        headers, bodies = parts[1::2], parts[2::2]
        if parts[0] or headers != names[: len(headers)]:
            raise AssertionError(f"unexpected table headers in {argv}: {text[:200]!r}")
    tables = {name: json.loads(body) for name, body in zip(names, bodies, strict=False)}
    return status, tables


def cli_records() -> Iterator[Record]:
    for cell, argv in cli_cells():
        status, tables = _run_cell(argv)
        yield {"path": [cell], "values": {"status": status}}
        for table, rows in tables.items():
            dropped = HOST_TIMED.get(table, ())
            for i, row in enumerate(rows):
                values = {k: v for k, v in row.items() if k not in dropped}
                yield {"path": [cell, table, f"row {i}"], "values": values}


def draw_records() -> Iterator[Record]:
    for name in approach_names():
        approach = resolve_approach(name)
        clients = approach.clients(KRAKEN, DRAW_RANKS)
        # Arrivals from no generator, uneven across every grouping.
        arrivals = (np.arange(clients) * 7 % 11) * 0.25
        calls = (
            (
                "prepare_iteration(DEFAULT_INTERFERENCE)",
                approach.prepare_iteration,
                (DEFAULT_INTERFERENCE,),
            ),
            ("prepare_iteration()", approach.prepare_iteration, ()),
            ("plan_iteration(arrivals)", approach.plan_iteration, (arrivals,)),
            ("plan_iteration()", approach.plan_iteration, ()),
        )
        for call, method, extra in calls:
            rng = np.random.default_rng(DRAW_SEED)
            plan = method(KRAKEN, DRAW_RANKS, 45 * MB, rng, *extra)
            done = solve(
                KRAKEN, plan.batch, background=plan.background, large_writes=plan.large_writes
            )
            result = plan.finalize(done)
            background = plan.background
            values = {
                "arrival": plan.batch.arrival.tolist(),
                "ost": plan.batch.ost.tolist(),
                "nbytes": plan.batch.nbytes.tolist(),
                "large_writes": plan.large_writes,
                "background": None if background is None else background.tolist(),
                "visible_times": result.visible_times.tolist(),
                "backend_wall_s": result.backend_wall_s,
                "backend_busy_s": result.backend_busy_s,
                "bytes_written": result.bytes_written,
                "files_created": result.files_created,
                "next_random": rng.random(),
            }
            yield {"path": [name, call], "values": values}


def collect() -> list[Record]:
    """Every record, computed now under :func:`hermetic`."""
    with hermetic():
        return [*cli_records(), *draw_records()]


def dumps(records: list[Record]) -> str:
    return "".join(json.dumps(record) + "\n" for record in records)


def load(path: Path = GOLDEN) -> list[Record]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _flatten(records: list[Record]) -> dict[Key, Any]:
    """One entry per value: ``(*path, column)`` or ``(*path, column, index)``.

    ``(*path,)`` holds the record's column names in order, so a renamed,
    dropped or reordered column moves too.
    """
    flat: dict[Key, Any] = {}
    for record in records:
        path = tuple(record["path"])
        flat[path] = tuple(record["values"])
        for column, value in record["values"].items():
            if isinstance(value, list):
                for i, item in enumerate(value):
                    flat[(*path, column, i)] = item
            else:
                flat[(*path, column)] = value
    return flat


def _same(a: Any, b: Any) -> bool:
    """Exact equality of type and value; a NaN equals a NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a) and math.isnan(b):
        return True
    return bool(a == b)


def _where(key: Key) -> str:
    return " / ".join(str(part) for part in key)


def compare(golden: list[Record], now: list[Record]) -> list[str]:
    """Every difference between two record lists, one line each, then a
    count and the largest absolute and relative float difference; empty
    when they are equal."""
    want, got = _flatten(golden), _flatten(now)
    lines: list[str] = []
    worst_abs: tuple[float, Key | None] = (0.0, None)
    worst_rel: tuple[float, Key | None] = (0.0, None)
    for key, expected in want.items():
        actual = got.get(key)
        if key in got and _same(expected, actual):
            continue
        now_text = repr(actual) if key in got else "<missing>"
        lines.append(f"{_where(key)}: golden {expected!r}, now {now_text}")
        if isinstance(expected, float) and isinstance(actual, float):
            diff = abs(expected - actual)
            if math.isfinite(diff) and diff > worst_abs[0]:
                worst_abs = (diff, key)
            rel = diff / max(abs(expected), abs(actual))
            if math.isfinite(rel) and rel > worst_rel[0]:
                worst_rel = (rel, key)
    new = [key for key in got if key not in want]
    lines.extend(f"{_where(key)}: golden <missing>, now {got[key]!r}" for key in new)
    if lines:
        lines.append(f"{len(lines) - len(new)} of {len(want)} golden values moved, {len(new)} new")
        for label, (size, key) in (("absolute", worst_abs), ("relative", worst_rel)):
            at = "" if key is None else f" at {_where(key)}"
            lines.append(f"largest {label} float difference: {size:.3e}{at}")
    return lines


def _main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__)
        return 2
    now = collect()
    moved = compare(load(), now) if GOLDEN.exists() else ["no golden file yet"]
    print("\n".join(moved) if moved else "golden matrix unchanged")
    if argv == ["--write"]:
        GOLDEN.write_text(dumps(now), encoding="utf-8")
        print(f"wrote {len(now)} records to {GOLDEN}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
