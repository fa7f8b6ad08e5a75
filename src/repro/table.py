"""A lightweight tabular result container used by every experiment runner.

``Table`` is a list of heterogeneous rows (plain dicts under the hood) with
just enough relational sugar for the benchmark assertions: ``where`` for
filtering, ``sort_by`` for ordering, ``column`` for extracting a series, and
``to_text`` for an aligned plain-text rendering printed under the benchmark
output.  Rows keep insertion order of their keys and tables keep the union of
all keys in first-seen order, so missing cells render as blanks rather than
erroring (e.g. the raw-writer row of the compression experiment has no
``ratio_percent``).
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable, Iterator
from typing import Any

__all__ = ["Row", "Table"]


def _plain(value: Any) -> Any:
    """A json/csv-friendly form of a cell (numpy scalars -> Python scalars)."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()
    return value


class Row:
    """A single result row: mapping access plus ``as_dict``."""

    __slots__ = ("_data",)

    def __init__(self, data: dict[str, Any]) -> None:
        self._data = dict(data)

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def keys(self) -> Iterable[str]:
        return self._data.keys()

    def as_dict(self) -> dict[str, Any]:
        """A copy of the row as a plain dict."""
        return dict(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Row({self._data!r})"


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


class Table:
    """An ordered collection of :class:`Row` with query helpers."""

    def __init__(self, rows: Iterable[dict[str, Any] | Row] = ()) -> None:
        self._rows: list[Row] = [r if isinstance(r, Row) else Row(r) for r in rows]

    # -- construction -----------------------------------------------------
    def append(self, row: dict[str, Any] | Row | None = None, **fields: Any) -> None:
        """Append a row given as a dict/Row and/or keyword fields."""
        data: dict[str, Any] = {}
        if row is not None:
            data.update(row.as_dict() if isinstance(row, Row) else row)
        data.update(fields)
        self._rows.append(Row(data))

    # -- container protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __bool__(self) -> bool:
        return bool(self._rows)

    # -- queries ----------------------------------------------------------
    def columns(self) -> list[str]:
        """Union of all row keys, in first-seen order."""
        seen: dict[str, None] = {}
        for row in self._rows:
            for key in row.keys():
                seen.setdefault(key)
        return list(seen)

    def where(self, **predicates: Any) -> Table:
        """Rows matching every predicate.

        A predicate value is compared by equality; pass a callable to test
        the cell instead.  Rows lacking a (sparsely populated) predicate
        column never match, but filtering a non-empty table on a column
        *no* row has is almost certainly a typo and raises a ``KeyError``
        naming the column instead of silently returning nothing.
        """
        if self._rows:
            known = set(self.columns())
            for key in predicates:
                if key not in known:
                    raise KeyError(
                        f"no column {key!r} in table (columns: {sorted(known)})"
                    )
        out = []
        for row in self._rows:
            for key, want in predicates.items():
                if key not in row:
                    break
                cell = row[key]
                if callable(want):
                    if not want(cell):
                        break
                elif cell != want:
                    break
            else:
                out.append(row)
        return Table(out)

    def sort_by(self, *keys: str, reverse: bool = False) -> Table:
        """A new table sorted by the given column(s).

        Rows lacking a sort column order after all rows that have it (before
        them when ``reverse=True``), consistent with the sparse-row design.
        """
        if not keys:
            raise ValueError("sort_by needs at least one column name")

        def sort_key(row: Row) -> tuple[tuple[object, ...], ...]:
            return tuple((0, row[k]) if k in row else (1,) for k in keys)

        return Table(sorted(self._rows, key=sort_key, reverse=reverse))

    def column(self, name: str) -> list[Any]:
        """The values of one column, skipping rows that lack it."""
        return [row[name] for row in self._rows if name in row]

    # -- rendering --------------------------------------------------------
    def to_text(self) -> str:
        """An aligned plain-text rendering of the whole table."""
        cols = self.columns()
        if not cols:
            return "(empty table)"
        cells = [[_fmt_cell(row.get(c)) for c in cols] for row in self._rows]
        widths = [
            max(len(c), *(len(line[i]) for line in cells)) if cells else len(c)
            for i, c in enumerate(cols)
        ]
        numeric = [
            all(
                isinstance(row.get(c), (int, float)) or c not in row
                for row in self._rows
            )
            for c in cols
        ]

        def fmt_line(parts: list[str]) -> str:
            padded = [
                p.rjust(w) if num else p.ljust(w)
                for p, w, num in zip(parts, widths, numeric, strict=True)
            ]
            return "  ".join(padded).rstrip()

        lines = [fmt_line(list(cols)), fmt_line(["-" * w for w in widths])]
        lines.extend(fmt_line(line) for line in cells)
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The table as CSV text; missing cells render as empty fields."""
        cols = self.columns()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(cols)
        for row in self._rows:
            writer.writerow(["" if c not in row else _plain(row[c]) for c in cols])
        return buffer.getvalue()

    def to_json(self, *, indent: int | None = None) -> str:
        """The table as a JSON array of row objects (sparse rows stay sparse)."""
        rows = [
            {key: _plain(value) for key, value in row.as_dict().items()}
            for row in self._rows
        ]
        return json.dumps(rows, indent=indent)

    def __repr__(self) -> str:
        return f"Table({len(self._rows)} rows x {len(self.columns())} cols)"
