"""Differential tests: ``Table.insert_many`` against the ``insert`` loop.

``insert_many`` checks a batch column by column and stores it only when
every check passes; on any failure it hands the batch to the row loop.
``check_batch`` + ``append_checked`` (a saved screen's path) check row by
row and store all of a batch or none of it.  These tests drive them and
the loop over random schemas and rows (bad values in several columns and
rows, NULLs in NOT NULL columns, non-finite floats, duplicate keys,
unknown columns, shuffled key orders, iterables that raise) and compare
everything the table shows: rows and their key order, version, index
lookups, the rows the listener was told of, and the error with the state
it leaves.
"""

from __future__ import annotations

import copy
from datetime import date, datetime
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError, SchemaError, TypeMismatchError
from repro.etl.components import Load
from repro.relational import Column, Database, DataType, Table, TableSchema

_NAMES = ("a", "b", "c", "d")

_NATIVE = {
    DataType.INTEGER: st.integers(-2, 3),
    DataType.FLOAT: st.sampled_from([0.5, -1.0, 2.0, 0.0]),
    DataType.TEXT: st.sampled_from(["x", "", "yes", "2"]),
    DataType.BOOLEAN: st.booleans(),
    DataType.DATE: st.sampled_from([date(2020, 1, 2), date(1999, 12, 31)]),
}


#: Key columns draw from wider pools, so keys collide only sometimes.
_KEYS = {DataType.INTEGER: st.integers(0, 12), DataType.TEXT: st.text("ab", max_size=3)}
_KEY_TYPES = list(_KEYS)


class _Opaque:
    """A value no column type coerces; copies of it are itself."""

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        return "<opaque>"


#: Values that coerce for some types and not for others.
_ANY = st.sampled_from(
    [
        None,
        0,
        1,
        2.0,
        2.5,
        True,
        "1",
        " 3 ",
        "true",
        "no",
        "x",
        "2.5",
        "2020-01-02",
        "2020-13-01",
        float("nan"),
        float("-inf"),
        "inf",
        date(2021, 5, 6),
        datetime(2021, 5, 6, 7, 8),
        _Opaque(),
    ]
)


class BoomError(Exception):
    """Raised by a batch's iterable partway through."""


@st.composite
def _schemas(draw):
    width = draw(st.integers(1, 4))
    key = draw(st.sampled_from([(), ("a",), _NAMES[:2] if width > 1 else ("a",)]))
    columns = tuple(
        Column(
            name,
            draw(st.sampled_from(_KEY_TYPES if name in key else list(DataType))),
            draw(st.booleans()),
        )
        for name in _NAMES[:width]
    )
    indexes = draw(st.lists(st.sampled_from(_NAMES[:width]), max_size=2, unique=True))
    return TableSchema("t", columns, key), [(name,) for name in indexes]


@st.composite
def _rows(draw, schema, messy_odds):
    """A row of native values, or (one in ``messy_odds``) a messy one: some
    bad values, missing columns, maybe an unknown one.  Either may come
    with its keys shuffled."""
    messy = draw(st.integers(1, messy_odds)) == 1
    row = {}
    for column in schema.columns:
        if messy and draw(st.integers(0, 5)) == 0:
            continue  # missing: filled with NULL
        strategy = _NATIVE[column.dtype]
        if column.name in schema.primary_key:
            strategy = _KEYS[column.dtype]
        row[column.name] = draw(st.one_of(strategy, _ANY) if messy else strategy)
    if messy and draw(st.integers(0, 5)) == 0:
        row["zz"] = 1
    if draw(st.integers(0, 4)) == 0:
        items = list(row.items())
        row = dict(draw(st.permutations(items)))
    return row


@st.composite
def _cases(draw):
    schema, indexes = draw(_schemas())
    existing = draw(st.lists(_rows(schema, 4), max_size=4))
    messy_odds = draw(st.sampled_from([2, 4, 100]))
    batch = draw(st.lists(_rows(schema, messy_odds), max_size=8))
    raise_at = draw(st.none() | st.none() | st.integers(0, len(batch)))
    return schema, indexes, existing, batch, raise_at


def _table(schema, indexes, existing, payloads):
    table = Table(schema)
    for columns in indexes:
        table.create_index(columns)
    for row in existing:
        try:
            table.insert(row)
        except (IntegrityError, SchemaError, TypeMismatchError):
            pass
    # Payload rows are copied when the listener runs, as a log would write them.
    table.set_mutation_listener(
        lambda op, payload: payloads.append((op, copy.deepcopy(payload)))
    )
    return table


def _feed(batch, raise_at):
    for position, row in enumerate(batch):
        if position == raise_at:
            raise BoomError(f"source failed at row {position}")
        yield row


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as error:  # noqa: BLE001 - compared by type and message
        return ("error", type(error).__name__, str(error))


def _loop(table, rows):
    count = 0
    for row in rows:
        table.insert(row)
        count += 1
    return count


def _screen(table, rows):
    return table.append_checked(table.check_batch(rows))


def _inserted(log):
    """The listener's calls as one ``insert`` per stored row.

    A checked batch is one ``insert_many`` call; the row loop makes one
    ``insert`` call per row.  Both tell of the same rows in the same order.
    """
    flat = []
    for op, payload in log:
        if op == "insert_many":
            assert payload["rows"], "an empty batch is never reported"
            flat.extend(("insert", {"row": row}) for row in payload["rows"])
        else:
            flat.append((op, payload))
    return flat


def _indexed(table, columns, key):
    """The rows ``table``'s index on exactly ``columns`` holds at ``key``."""
    index = table.matching_index(columns)
    assert index is not None and index.columns == tuple(columns)
    return list(table.rows_at(index.lookup(key)))


def _state(table, schema, indexes):
    rows = table.rows()
    keyed = [schema.primary_key] if schema.primary_key else []
    lookups = {}
    for columns in keyed + list(indexes):
        keys = {tuple(row[c] for c in columns) for row in rows}
        keys.add((None,) * len(columns))
        lookups[columns] = {
            key: _indexed(table, columns, key) for key in sorted(keys, key=repr)
        }
    return {
        "rows": rows,
        "key_order": [list(row) for row in rows],
        "version": table.version,
        "length": len(table),
        "lookups": lookups,
    }


class TestDifferential:
    @given(_cases())
    @settings(max_examples=400, deadline=None)
    def test_insert_many_matches_the_row_loop(self, case):
        schema, indexes, existing, batch, raise_at = case
        original = copy.deepcopy(batch)
        bulk_log: list = []
        loop_log: list = []
        bulk = _table(schema, indexes, existing, bulk_log)
        loop = _table(schema, indexes, existing, loop_log)

        got = _outcome(lambda: bulk.insert_many(_feed(batch, raise_at)))
        want = _outcome(lambda: _loop(loop, _feed(batch, raise_at)))

        assert got == want
        assert _state(bulk, schema, indexes) == _state(loop, schema, indexes)
        assert _inserted(bulk_log) == _inserted(loop_log)
        assert batch == original  # the caller's rows are never written

    @given(_cases())
    @settings(max_examples=300, deadline=None)
    def test_a_checked_batch_is_the_loop_or_nothing(self, case):
        schema, indexes, existing, batch, _ = case
        original = copy.deepcopy(batch)
        screen_log: list = []
        loop_log: list = []
        screen = _table(schema, indexes, existing, screen_log)
        loop = _table(schema, indexes, existing, loop_log)
        before = _state(screen, schema, indexes)

        got = _outcome(lambda: _screen(screen, batch))
        want = _outcome(lambda: _loop(loop, batch))

        assert got == want
        if got[0] == "ok":
            assert _state(screen, schema, indexes) == _state(loop, schema, indexes)
            assert _inserted(screen_log) == _inserted(loop_log)
            assert len(screen_log) == (1 if batch else 0)
        else:
            assert _state(screen, schema, indexes) == before
            assert screen_log == []
        assert batch == original
    @given(_cases())
    @settings(max_examples=100, deadline=None)
    def test_stored_rows_do_not_alias_the_callers(self, case):
        schema, indexes, existing, batch, _ = case
        table = _table(schema, indexes, existing, [])
        try:
            table.insert_many(batch)
        except (IntegrityError, SchemaError, TypeMismatchError):
            return
        before = table.rows()
        for row in batch:
            row.clear()
        assert table.rows() == before


def _schema():
    return TableSchema(
        "t",
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("score", DataType.FLOAT),
            Column("seen", DataType.DATE),
        ),
        ("id",),
    )


class TestContract:
    def test_errors_come_in_row_order_not_column_order(self):
        table = Table(_schema())
        batch = [
            {"id": 1, "score": 1.0, "seen": "not a date"},
            {"id": "x", "score": 2.0, "seen": None},
        ]
        with pytest.raises(TypeMismatchError, match="not a date"):
            table.insert_many(batch)
        assert table.version == 0 and len(table) == 0

    def test_a_failed_batch_keeps_the_prefix_the_loop_would(self):
        table = Table(_schema())
        table.insert({"id": 3})
        batch = [{"id": 1}, {"id": 2, "score": "1.5"}, {"id": 3}, {"id": 4}]
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.insert_many(batch)
        assert [row["id"] for row in table.rows()] == [3, 1, 2]
        assert table.rows()[2]["score"] == 1.5
        assert table.version == 3

    def test_a_checked_batch_never_takes_the_row_loop(self, monkeypatch):
        table = Table(_schema())
        table.create_index(("score",))

        def refuse(values):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(table, "insert", refuse)
        batch = [
            {"id": 1, "score": 1, "seen": "2020-01-02"},
            {"seen": date(2020, 1, 3), "id": "2"},
            {"id": 3, "score": None, "seen": datetime(2020, 1, 4, 5, 6)},
        ]
        assert table.insert_many(batch) == 3
        assert table.rows() == [
            {"id": 1, "score": 1.0, "seen": date(2020, 1, 2)},
            {"id": 2, "score": None, "seen": date(2020, 1, 3)},
            {"id": 3, "score": None, "seen": date(2020, 1, 4)},
        ]
        assert table.version == 3
        assert _indexed(table, ("score",), (1.0,)) == [table.rows()[0]]
        assert _indexed(table, ("id",), (2,)) == [table.rows()[1]]

    def test_an_empty_batch_changes_nothing(self):
        table = Table(_schema())
        assert table.insert_many(iter([])) == 0
        assert table.version == 0

    def test_a_checked_batch_goes_stale_when_the_table_changes(self):
        table = Table(_schema())
        batch = table.check_batch([{"id": 1}, {"id": 2}])
        assert table.version == 0 and len(table) == 0
        table.insert({"id": 1})
        with pytest.raises(IntegrityError, match="checked at version 0"):
            table.append_checked(batch)
        assert [row["id"] for row in table.rows()] == [1]
        assert table.append_checked(table.check_batch([{"id": 2}, {"id": 3}])) == 2
        assert table.version == 3

    def test_a_batch_repeating_a_key_is_refused_whole(self):
        table = Table(_schema())
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            table.check_batch([{"id": 1}, {"id": 2}, {"id": 1}])
        assert table.version == 0 and len(table) == 0

    def test_database_insert_is_the_bulk_insert(self):
        db = Database("d")
        db.create_table(_schema())
        assert db.insert("t", ({"id": n} for n in range(3))) == 3
        assert db.table("t").version == 3


def _load_schema():
    return TableSchema(
        "loaded",
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("flag", DataType.BOOLEAN),
        ),
    )


class TestLoad:
    ROWS = [
        {"id": 1, "flag": "true", "extra": "dropped"},
        {"flag": False, "id": 2},
        {"id": 3},
    ]
    STORED = [
        {"id": 1, "flag": True},
        {"id": 2, "flag": False},
        {"id": 3, "flag": None},
    ]

    def test_run_projects_loads_and_hands_back_unaliased_rows(self):
        db = Database("wh")
        rows = copy.deepcopy(self.ROWS)
        out = Load(db, _load_schema()).run([rows])
        assert out is rows
        table = db.table("loaded")
        assert table.rows() == self.STORED
        assert [list(row) for row in table.rows()] == [["id", "flag"]] * 3
        for row in out:
            row["id"] = 99
            row.clear()
        assert table.rows() == self.STORED

    def test_a_bad_row_fails_the_load_where_the_loop_would(self):
        db = Database("wh")
        rows = [{"id": 1}, {"id": None}, {"id": "x"}]
        with pytest.raises(IntegrityError, match="NOT NULL"):
            Load(db, _load_schema()).run([rows])
        assert db.table("loaded").rows() == [{"id": 1, "flag": None}]


def _same_as_the_loop(schema, batch, indexes=(), existing=()):
    """Insert ``batch`` both ways and compare everything the tables show."""
    original = copy.deepcopy(list(map(dict, batch)))
    bulk_log: list = []
    loop_log: list = []
    bulk = _table(schema, indexes, existing, bulk_log)
    loop = _table(schema, indexes, existing, loop_log)
    got = _outcome(lambda: bulk.insert_many(batch))
    want = _outcome(lambda: _loop(loop, batch))
    assert got == want
    assert _state(bulk, schema, indexes) == _state(loop, schema, indexes)
    assert _inserted(bulk_log) == _inserted(loop_log)
    assert list(map(dict, batch)) == original
    return got, bulk_log


def _wide_schema(nullable=True):
    return TableSchema(
        "t",
        (
            Column("a", DataType.INTEGER, nullable=False),
            Column("b", DataType.TEXT, nullable=nullable),
            Column("c", DataType.BOOLEAN),
            Column("d", DataType.FLOAT),
        ),
        ("a",),
    )


def _wide_row(n):
    return {"a": n, "b": f"r{n}", "c": n % 2 == 0, "d": n / 4}


@st.composite
def _perturbed(draw):
    """Up to 200 clean rows in schema order, a few of them reordered,
    missing a column or carrying an unknown one."""
    count = draw(st.integers(1, 200))
    batch = [_wide_row(n) for n in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, count - 1))
        row = batch[at]
        change = draw(st.sampled_from(["reorder", "drop", "add"]))
        if change == "reorder":
            batch[at] = dict(draw(st.permutations(list(row.items()))))
        elif change == "drop":
            row.pop(draw(st.sampled_from(sorted(row))), None)
        else:
            row[draw(st.sampled_from(["zz", "b", "e"]))] = draw(_ANY)
    return batch


class TestFlatShape:
    """``insert_many`` tests a batch's shape with one list of every row's
    keys; these batches aim at its edges."""

    def test_one_reordered_row_in_a_thousand(self):
        batch = [_wide_row(n) for n in range(1000)]
        batch[500] = dict(reversed(list(batch[500].items())))
        got, log = _same_as_the_loop(_wide_schema(), batch, [("c",)])
        assert got == ("ok", 1000)
        assert [op for op, _ in log] == ["insert_many"]

    def test_a_missing_column_beside_an_unknown_one(self):
        # Row 1 lacks "d" and row 2 carries "zz": the batch holds exactly
        # width x count keys, yet it is not the schema's names per row.
        # Every value is a native int, so no coercion failure would hide a
        # shape test that counted keys alone.
        schema = TableSchema("t", tuple(Column(n, DataType.INTEGER) for n in "abcd"))
        batch = [dict.fromkeys("abcd", n) for n in range(6)]
        del batch[1]["d"]
        batch[2]["zz"] = 1
        got, _ = _same_as_the_loop(schema, batch)
        assert got[:2] == ("error", "SchemaError")

    def test_a_one_column_schema(self):
        schema = TableSchema("t", (Column("a", DataType.INTEGER),))
        batch = [{"a": n} for n in range(50)] + [{"a": "7"}, {}, {"a": None}]
        got, log = _same_as_the_loop(schema, batch)
        assert got == ("ok", 53)
        assert [op for op, _ in log] == ["insert_many"]

    def test_mapping_proxy_rows(self):
        batch = [MappingProxyType(_wide_row(n)) for n in range(20)]
        batch.append(MappingProxyType({"d": "2.5", "a": 20}))
        got, log = _same_as_the_loop(_wide_schema(), batch)
        assert got == ("ok", 21)
        assert [op for op, _ in log] == ["insert_many"]

    def test_a_not_null_columns_only_null_in_the_last_row(self):
        batch = [_wide_row(n) for n in range(1000)]
        batch[999]["b"] = None
        got, _ = _same_as_the_loop(_wide_schema(nullable=False), batch)
        assert got[:2] == ("error", "IntegrityError")

    @given(_perturbed())
    @settings(max_examples=150, deadline=None)
    def test_perturbed_batches_match_the_row_loop(self, batch):
        _same_as_the_loop(_wide_schema(), batch, [("b",)])
