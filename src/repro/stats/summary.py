"""Reducing per-replication result tables into CI-bearing summary tables.

Every experiment runner can emit one row per (cell, replication); this
module collapses those rows into one row per cell.  For each float
column ``c`` the reduced row carries

========================  ====================================================
``c``                     mean across replications (same name, so the
                          single-run shape checks keep working on reduced
                          tables)
``c_std``                 sample spread across replications
``c_cv``                  coefficient of variation (std / |mean|)
``c_p95``                 95th percentile across replications
``c_ci_lo``/``c_ci_hi``   percentile-bootstrap confidence interval of the
                          mean (:func:`repro.stats.bootstrap.bootstrap_ci`)
========================  ====================================================

plus a ``replications`` count.  Integer, boolean and string columns are
carried through unchanged when they are constant within the group (e.g.
``files_created``, ``ranks``) and dropped otherwise — a varying
non-float column has no meaningful cross-replication reduction.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..table import Row, Table
from .bootstrap import bootstrap_ci

__all__ = ["reduce_replications"]


def reduce_replications(table: Table, group_by: str | Iterable[str], *, seed: int = 0) -> Table:
    """Collapse a per-replication table into one CI-bearing row per group.

    ``table`` holds one row per (cell, replication) with the cell identity
    in the ``group_by`` columns, which every row must carry (a missing one
    raises ``KeyError``).  Groups keep first-seen order; each reduced row
    holds the group columns, the group's row count as ``replications``,
    then every other column in first-seen order, sparse cells skipped.
    The ``replication`` index column (if present) is dropped on the way
    out.
    """
    keys = [group_by] if isinstance(group_by, str) else list(group_by)
    if not keys:
        raise ValueError("reduce_replications needs at least one group column")
    groups: dict[tuple[object, ...], list[Row]] = {}
    for row in table:
        for key in keys:
            if key not in row:
                raise KeyError(f"row {row!r} lacks group column {key!r}")
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = Table()
    for group, rows in groups.items():
        cells: dict[str, object] = dict(zip(keys, group, strict=True))
        cells["replications"] = len(rows)
        columns: dict[str, list[object]] = {}
        for row in rows:
            for name in row.keys():
                if name not in keys and name != "replication":
                    columns.setdefault(name, []).append(row[name])
        for name, values in columns.items():
            cells.update(_reduce_column(name, values, seed))
        out.append(cells)
    return out


def _reduce_column(column: str, values: list[object], seed: int) -> dict[str, object]:
    """The CI column family of a float column; otherwise the column itself
    when it is constant within the group, and nothing when it varies."""
    if not all(isinstance(v, float) for v in values):
        return {column: values[0]} if len(set(values)) == 1 else {}
    samples = np.asarray(values, dtype=np.float64)
    mean = float(samples.mean())
    std = float(samples.std(ddof=1)) if samples.size > 1 else 0.0
    lo, hi = bootstrap_ci(samples, seed=seed, key=column)
    return {
        column: mean,
        f"{column}_std": std,
        f"{column}_cv": std / abs(mean) if mean else 0.0,
        f"{column}_p95": float(np.percentile(samples, 95)),
        f"{column}_ci_lo": lo,
        f"{column}_ci_hi": hi,
    }
