"""Unit tests for the Table result container."""

import csv
import io
import json

import numpy as np
import pytest

from repro.table import Row, Table


@pytest.fixture
def table() -> Table:
    return Table(
        [
            {"approach": "collective", "ranks": 1152, "io_s": 94.0},
            {"approach": "damaris", "ranks": 1152, "io_s": 0.07},
            {"approach": "damaris", "ranks": 576, "io_s": 0.07},
            {"approach": "file-per-process", "ranks": 576, "io_s": 9.3},
        ]
    )


def test_len_and_indexing(table):
    assert len(table) == 4
    row = table[1]
    assert isinstance(row, Row)
    assert row["approach"] == "damaris"
    assert table[-1]["ranks"] == 576


def test_iteration_yields_rows(table):
    names = [row["approach"] for row in table]
    assert names == ["collective", "damaris", "damaris", "file-per-process"]


def test_as_dict_is_a_copy(table):
    d = table[0].as_dict()
    assert d == {"approach": "collective", "ranks": 1152, "io_s": 94.0}
    d["ranks"] = 0
    assert table[0]["ranks"] == 1152


def test_where_equality(table):
    damaris = table.where(approach="damaris")
    assert len(damaris) == 2
    assert all(row["approach"] == "damaris" for row in damaris)


def test_where_multiple_predicates(table):
    sub = table.where(approach="damaris", ranks=576)
    assert len(sub) == 1
    assert sub[0]["io_s"] == pytest.approx(0.07)


def test_where_callable_predicate(table):
    slow = table.where(io_s=lambda v: v > 1.0)
    assert {row["approach"] for row in slow} == {"collective", "file-per-process"}


def test_where_missing_column_never_matches():
    table = Table([{"a": 1}, {"a": 2, "b": 3}])
    assert len(table.where(b=3)) == 1


def test_where_unknown_column_raises_keyerror_naming_it(table):
    # Regression: filtering on a column no row has used to return an empty
    # table, turning a typo into an opaque IndexError far downstream.
    with pytest.raises(KeyError, match="io_sec"):
        table.where(io_sec=1.0)
    with pytest.raises(KeyError, match="aproach"):
        table.where(aproach="damaris", ranks=1152)


def test_where_on_empty_table_stays_lenient():
    # No rows -> nothing to match and no column universe to validate against.
    assert len(Table().where(anything=1)) == 0


def test_sort_by(table):
    by_ranks = table.sort_by("ranks")
    assert by_ranks.column("ranks") == [576, 576, 1152, 1152]
    by_io_desc = table.sort_by("io_s", reverse=True)
    assert by_io_desc[0]["approach"] == "collective"


def test_sort_by_multiple_keys(table):
    rows = table.sort_by("ranks", "approach")
    assert [(r["ranks"], r["approach"]) for r in rows][:2] == [
        (576, "damaris"),
        (576, "file-per-process"),
    ]


def test_sort_by_requires_a_key(table):
    with pytest.raises(ValueError):
        table.sort_by()


def test_sort_by_missing_cells_sort_last():
    table = Table([{"ratio": 5.0}, {"name": "raw"}, {"ratio": 2.0}])
    rows = table.sort_by("ratio")
    assert rows.column("ratio") == [2.0, 5.0]
    assert "name" in rows[2]  # the ratio-less row ends up last


def test_column_skips_missing_cells():
    table = Table([{"a": 1}, {"b": 2}, {"a": 3}])
    assert table.column("a") == [1, 3]


def test_append_merges_dict_and_kwargs():
    table = Table()
    table.append({"a": 1}, b=2)
    assert table[0].as_dict() == {"a": 1, "b": 2}


def test_columns_union_first_seen_order():
    table = Table([{"b": 1, "a": 2}, {"c": 3}])
    assert table.columns() == ["b", "a", "c"]


def test_to_text_renders_all_rows_and_blanks():
    table = Table([{"writer": "raw", "bytes": 10}, {"writer": "zlib", "ratio": 5.5}])
    text = table.to_text()
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "writer" in lines[0] and "ratio" in lines[0]
    assert "raw" in lines[2] and "zlib" in lines[3]


def test_empty_table():
    table = Table()
    assert not table
    assert table.to_text() == "(empty table)"
    assert table.column("x") == []


def test_to_csv_roundtrip(table):
    rows = list(csv.DictReader(io.StringIO(table.to_csv())))
    assert len(rows) == 4
    assert rows[0] == {"approach": "collective", "ranks": "1152", "io_s": "94.0"}


def test_to_csv_blank_for_missing_cells():
    table = Table([{"writer": "raw", "bytes": 10}, {"writer": "zlib", "ratio": 5.5}])
    lines = table.to_csv().splitlines()
    assert lines[0] == "writer,bytes,ratio"
    assert lines[1] == "raw,10,"
    assert lines[2] == "zlib,,5.5"


def test_to_json_sparse_rows_stay_sparse():
    table = Table([{"a": 1}, {"b": 2.5}])
    rows = json.loads(table.to_json())
    assert rows == [{"a": 1}, {"b": 2.5}]


def test_serializers_accept_numpy_scalars():
    table = Table([{"x": np.float64(1.5), "n": np.int64(3), "flag": np.bool_(True)}])
    rows = json.loads(table.to_json())
    assert rows == [{"x": 1.5, "n": 3, "flag": True}]
    parsed = list(csv.DictReader(io.StringIO(table.to_csv())))
    assert parsed[0]["x"] == "1.5"


def test_to_json_indent():
    table = Table([{"a": 1}])
    assert "\n" in table.to_json(indent=2)
