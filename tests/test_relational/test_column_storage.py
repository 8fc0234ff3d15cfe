"""Tables store columns: a differential against dict rows, the memory a
stored row costs, and the cost of an update's index maintenance.

The reference model below keeps its extent as a list of dicts and
re-derives everything (coercion through ``DataType.coerce``, NOT NULL,
primary keys, index lookups by scanning) the plain way.  Random schemas
take random ``insert``/``insert_many``/``update``/``delete``/
``create_index``/``drop_index`` programs, and after every step the table
must show what the model shows: ``rows()``, ``iter_rows()``,
``rows_at()``, ``stored_columns()``, every index's lookups, the version,
and the mutation listener's payloads (rows as tuples in schema order).
The programs also open scans and ``rows_at`` iterations and step them
between writes: the model's list of rows, appended to, set in place by
an update and replaced by a delete, is what an open iteration yields.

An update re-keys only the indexes over a column it changes, and only at
the rows it changed: each changed row moves from its old key's bucket to
its new key's, so the work is per changed row, not per stored row.
"""

from __future__ import annotations

import copy
import sys
from datetime import date, datetime
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IntegrityError, ReproError, SchemaError
from repro.relational import Column, Database, DataType, Table, TableSchema
from repro.relational.algebra import ExecContext, Scan
from repro.relational import index as index_module
from repro.relational.index import HashIndex
from repro.storage.engine import state_fingerprint
from repro.storage.snapshots import load_snapshot, write_snapshot

_NAMES = ("a", "b", "c", "d")

#: Each type's native values: few, so keys and predicates collide.
_NATIVE = {
    DataType.INTEGER: [0, 1, 2],
    DataType.FLOAT: [0.5, -1.0, 2.0],
    DataType.TEXT: ["x", "y", ""],
    DataType.BOOLEAN: [True, False],
    DataType.DATE: [date(2020, 1, 2), date(1999, 12, 31)],
}

#: Values that coerce for some types and not for others.
_MESSY = [
    None,
    1,
    2.5,
    True,
    "1",
    " 3 ",
    "true",
    "x",
    "2020-01-02",
    float("nan"),
    datetime(2021, 5, 6, 7, 8),
]


#: Key columns draw from wider pools, so keys collide only sometimes.
_KEYS = {DataType.INTEGER: list(range(12)), DataType.TEXT: ["a", "b", "ab", "ba", "bb"]}


@st.composite
def _schemas(draw):
    width = draw(st.integers(1, 4))
    names = _NAMES[:width]
    key = draw(st.sampled_from([(), names[:1], names[:2]]))
    columns = tuple(
        Column(
            name,
            draw(st.sampled_from(list(_KEYS) if name in key else list(DataType))),
            draw(st.booleans()),
        )
        for name in names
    )
    return TableSchema("t", columns, key)


def _value(column: Column, messy: bool, key: bool = False):
    """A native value of the column, or NULL (one time in six) if it is
    nullable; with ``messy``, maybe any value."""
    native = st.sampled_from((_KEYS if key else _NATIVE)[column.dtype])
    value = st.one_of(*[native] * 5, st.none()) if column.nullable else native
    return st.one_of(value, st.sampled_from(_MESSY)) if messy else value


@st.composite
def _row(draw, schema: TableSchema, clean: bool = False):
    """A row of native values or NULLs; unless ``clean``, one in five is
    messy (values of any type, missing columns, maybe an unknown one)."""
    messy = not clean and draw(st.integers(0, 4)) == 0
    row = {
        column.name: draw(_value(column, messy, column.name in schema.primary_key))
        for column in schema.columns
        if not (messy and draw(st.booleans()))
    }
    if messy and draw(st.booleans()):
        row["zz"] = 1
    return row


@st.composite
def _update(draw, schema: TableSchema):
    """``(column, value, equal, changes)``: rows whose column equals the
    value (or, unless ``equal``, does not) take the changes."""
    match = draw(st.sampled_from(schema.columns))
    changed = draw(st.lists(st.sampled_from(schema.columns), min_size=1, max_size=2))
    messy = draw(st.integers(0, 4)) == 0
    changes = {
        column.name: draw(_value(column, messy, column.name in schema.primary_key))
        for column in changed
    }
    if messy and draw(st.booleans()):
        changes["zz"] = 1
    return match.name, draw(_value(match, False)), draw(st.booleans()), changes


@st.composite
def _delete(draw, schema: TableSchema):
    """``(column, value)``: rows whose column equals the value go."""
    column = draw(st.sampled_from(schema.columns))
    return column.name, draw(_value(column, False)), True


def _column_sets(schema: TableSchema) -> list[tuple[str, ...]]:
    """Index column tuples: non-empty subsets in schema order, and one
    naming an unknown column."""
    names = schema.column_names
    return [*combinations(names, 1), *combinations(names, 2), ("zz",)]


@st.composite
def _programs(draw):
    schema = draw(_schemas())
    row = _row(schema)
    column_sets = st.sampled_from(_column_sets(schema))
    update = st.tuples(st.just("update"), _update(schema))
    ops = st.one_of(
        st.tuples(st.just("insert"), row),
        st.tuples(st.just("insert_many"), st.lists(row, max_size=4)),
        *[update] * 4,
        st.tuples(st.just("delete"), _delete(schema)),
        st.tuples(st.just("create_index"), column_sets),
        st.tuples(st.just("drop_index"), column_sets),
        st.tuples(st.just("open"), st.none() | st.lists(st.integers(0, 9))),
        *[st.tuples(st.just("step"), st.none())] * 2,
    )
    # Programs start from indexed, filled tables, so updates and deletes
    # have entries to move.
    start = [("create_index", c) for c in draw(st.lists(column_sets, max_size=2))]
    first = draw(st.lists(_row(schema, clean=True), min_size=2, max_size=8))
    start.append(("insert_many", first))
    return schema, start + draw(st.lists(ops, min_size=3, max_size=16))


class Reference:
    """A table of dict rows, checked and indexed the plain way."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: list[dict] = []
        self.version = 0
        self.indexes: list[tuple[str, ...]] = []
        self.log: list[tuple[str, dict]] = []

    def _stored(self, row: dict) -> tuple:
        return tuple(row[name] for name in self.schema.column_names)

    def _checked(self, values: dict) -> dict:
        unknown = set(values) - set(self.schema.column_names)
        if unknown:
            raise SchemaError(f"unknown {sorted(unknown)}")
        row = {}
        for column in self.schema.columns:
            value = column.dtype.coerce(values.get(column.name))
            if value is None and not column.nullable:
                raise IntegrityError("NOT NULL")
            row[column.name] = value
        return row

    def _key(self, row: dict) -> tuple:
        return tuple(row[name] for name in self.schema.primary_key)

    def _check_key(self, row: dict, others: list[dict]) -> None:
        if not self.schema.primary_key:
            return
        key = self._key(row)
        if None in key:
            raise IntegrityError("NULL key")
        if any(self._key(other) == key for other in others):
            raise IntegrityError("duplicate key")

    def insert(self, values: dict) -> dict:
        row = self._checked(values)
        self._check_key(row, self.rows)
        self.rows.append(row)
        self.version += 1
        self.log.append(("insert", {"row": self._stored(row)}))
        return row

    def insert_many(self, batch: list[dict]) -> int:
        staged = []
        try:
            for values in batch:
                row = self._checked(values)
                self._check_key(row, self.rows + staged)
                staged.append(row)
        except ReproError:
            # The row loop: the prefix is stored, then the error.
            for values in batch:
                self.insert(values)
        if staged:
            self.rows.extend(staged)
            self.version += len(staged)
            self.log.append(
                ("insert_many", {"rows": [self._stored(row) for row in staged]})
            )
        return len(batch)

    def update(self, predicate, changes: dict) -> int:
        positions = [p for p, row in enumerate(self.rows) if predicate(row)]
        for name in changes:
            if name not in self.schema.column_names:
                raise SchemaError(f"unknown {name}")
        coerced = {
            name: self.schema.column(name).dtype.coerce(change)
            for name, change in changes.items()
        }
        for name, change in coerced.items():
            if change is None and not self.schema.column(name).nullable:
                raise IntegrityError("NOT NULL")
        changed = [{**self.rows[p], **coerced} for p in positions]
        if self.schema.primary_key and set(coerced) & set(self.schema.primary_key):
            kept = [row for p, row in enumerate(self.rows) if p not in positions]
            for number, row in enumerate(changed):
                self._check_key(row, kept + changed[:number])
        for position, row in zip(positions, changed):
            self.rows[position] = row
        if positions:
            self.version += 1
            self.log.append(
                ("update", {"positions": positions, "changes": dict(changes)})
            )
        return len(positions)

    def delete(self, predicate) -> int:
        positions = [p for p, row in enumerate(self.rows) if predicate(row)]
        if positions:
            self.rows = [r for p, r in enumerate(self.rows) if p not in positions]
            self.version += 1
            self.log.append(("delete", {"positions": positions}))
        return len(positions)

    def create_index(self, columns: tuple[str, ...]) -> None:
        for name in columns:
            if name not in self.schema.column_names:
                raise SchemaError(f"unknown {name}")
        if columns not in self.indexes:
            self.indexes.append(columns)
            self.log.append(("create_index", {"columns": list(columns)}))

    def drop_index(self, columns: tuple[str, ...]) -> bool:
        if columns not in self.indexes:
            return False
        self.indexes.remove(columns)
        self.log.append(("drop_index", {"columns": list(columns)}))
        return True

    def lookup(self, columns: tuple[str, ...], key: tuple) -> list[int]:
        return [
            position
            for position, row in enumerate(self.rows)
            if tuple(row[name] for name in columns) == key
        ]

    def iter_rows(self):
        return iter(self.rows)

    def rows_at(self, positions):
        return map(self.rows.__getitem__, positions)


def _open(target, positions):
    """A scan (``positions`` None) or a ``rows_at`` iteration of ``target``."""
    if positions is None:
        return target.iter_rows()
    return target.rows_at(iter(positions))


def _step(iterator):
    try:
        return ("row", dict(next(iterator)))
    except StopIteration:
        return ("end",)
    except IndexError:
        return ("error", "IndexError")


def _run(target, op: str, arg):
    try:
        if op in ("update", "delete"):
            column, value, equal, *changes = arg

            def predicate(row):
                return (row[column] == value) == equal

            result = getattr(target, op)(predicate, *changes)
        elif op == "create_index":
            result = target.create_index(arg)
            result = None  # the table returns its index, the model nothing
        else:
            result = getattr(target, op)(arg)
        return ("ok", result)
    except ReproError as error:
        return ("error", type(error).__name__)


def _compare(table: Table, model: Reference, log: list) -> None:
    assert table.version == model.version
    assert len(table) == len(model.rows)
    assert table.rows() == model.rows
    assert list(table.iter_rows()) == model.rows
    assert list(table.stored_columns()) == [
        [row[name] for row in model.rows] for name in table.schema.column_names
    ]
    assert all(type(column) is list for column in table.stored_columns())
    assert table.secondary_index_columns() == model.indexes
    assert log == model.log
    keyed = [table.schema.primary_key] if table.schema.primary_key else []
    for columns in keyed + model.indexes:
        index = table.matching_index(columns)
        assert index is not None and index.columns == columns
        keys = {tuple(row[name] for name in columns) for row in model.rows}
        keys.add((None,) * len(columns))
        for key in keys:
            positions = model.lookup(columns, key)
            assert index.lookup(key) == positions, (columns, key)
            assert index.count(key) == len(positions)
            assert list(table.rows_at(positions)) == [model.rows[p] for p in positions]
    reversed_positions = list(range(len(model.rows)))[::-1]
    assert list(table.rows_at(reversed_positions)) == model.rows[::-1]


class TestDifferential:
    @given(_programs())
    @settings(max_examples=300, deadline=None)
    def test_column_rows_match_dict_rows(self, program):
        schema, ops = program
        table, model = Table(schema), Reference(schema)
        log: list = []
        table.set_mutation_listener(
            lambda op, payload: log.append((op, copy.deepcopy(payload)))
        )
        opened: list = []  # (the table's iteration, the model's)
        for op, arg in ops:
            if op == "open":
                opened.append((_open(table, arg), _open(model, arg)))
            elif op == "step":
                for ours, theirs in opened:
                    assert _step(ours) == _step(theirs)
            else:
                assert _run(table, op, arg) == _run(model, op, arg), (op, arg)
            _compare(table, model, log)
        for ours, theirs in opened:
            while (step := _step(ours)) != ("end",):
                assert step == _step(theirs)
            assert _step(theirs) == ("end",)

    @given(_programs())
    @settings(max_examples=100, deadline=None)
    def test_rows_handed_out_are_never_storage(self, program):
        schema, ops = program
        table = Table(schema)
        for op, arg in ops:
            if op not in ("open", "step"):
                _run(table, op, arg)
        stored = copy.deepcopy(list(table.stored_columns()))
        for rows in (table.rows(), list(table.iter_rows())):
            for row in rows:
                row.clear()
        assert list(table.stored_columns()) == stored


class TestOpenIterations:
    """An iteration opened before a write, spelled out: a scan walks the
    lists it started on, seeing appended rows and set cells; a delete
    builds new lists, which it never sees."""

    def _table(self) -> Table:
        table = Table(TableSchema.build("t", [("id", DataType.INTEGER)]))
        table.insert_many([{"id": i} for i in range(5)])
        return table

    def test_a_scan_sees_inserts_and_updates_but_not_a_delete(self):
        db = Database("d")
        table = db.create_table(TableSchema.build("t", [("id", DataType.INTEGER)]))
        table.insert_many([{"id": i} for i in range(5)])
        scan = Scan("t").stream(ExecContext(db))
        assert next(scan) == {"id": 0}
        table.insert({"id": 5})
        table.update(lambda row: row["id"] == 3, {"id": 30})
        assert next(scan) == {"id": 1}
        table.delete(lambda row: row["id"] in (2, 4))
        table.insert({"id": 6})
        assert list(scan) == [{"id": 2}, {"id": 30}, {"id": 4}, {"id": 5}]
        assert [row["id"] for row in table.rows()] == [0, 1, 30, 5, 6]

    def test_rows_at_reads_the_lists_of_its_call(self):
        table = self._table()
        picked = table.rows_at(iter([0, 3, 5, 2]))
        assert next(picked) == {"id": 0}
        table.insert({"id": 5})
        table.update(lambda row: row["id"] == 3, {"id": 30})
        assert next(picked) == {"id": 30}
        table.delete(lambda row: row["id"] == 0)
        assert list(picked) == [{"id": 5}, {"id": 2}]
        assert list(table.rows_at([0, 3])) == [{"id": 1}, {"id": 4}]


class TestZeroColumns:
    """A schema with no columns has no list to count its rows."""

    def test_the_row_count_survives_inserts_deletes_and_a_snapshot(self, tmp_path):
        db = Database("d")
        table = db.create_table(TableSchema("t", ()))
        table.insert({})
        assert table.insert_many([{}, {}, {}]) == 3
        table.append_checked(table.check_batch([{}]))
        assert (len(table), table.version) == (5, 5)
        assert table.rows() == [{}] * 5 and list(table.iter_rows()) == [{}] * 5
        assert list(table.rows_at([4, 0])) == [{}, {}]
        assert table.stored_columns() == ()
        assert table.delete_at([1, 3, 99]) == 3
        assert len(table) == 3
        assert table.delete(lambda row: True) == 3
        assert len(table) == 0 and table.rows() == []
        table.insert_many([{}, {}])
        loaded, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
        assert len(loaded.table("t")) == 2
        assert state_fingerprint(loaded) == state_fingerprint(db)


class TestMemory:
    """A stored row costs one pointer per column, give or take the lists'
    over-allocation (an eighth, as a list grows)."""

    @pytest.mark.parametrize("batch", [1, 97])
    def test_columns_cost_a_pointer_per_value(self, batch):
        count = 20_000
        table = Table(
            TableSchema.build(
                "eav",
                [
                    ("record_id", DataType.INTEGER),
                    ("entity", DataType.TEXT),
                    ("attribute", DataType.TEXT),
                    ("value", DataType.TEXT),
                    ("source", DataType.TEXT),
                ],
            )
        )
        rows = [
            {
                "record_id": i // 40,
                "entity": "procedure",
                "attribute": "field",
                "value": "v",
                "source": "cori",
            }
            for i in range(count)
        ]
        for start in range(0, count, batch):
            if batch == 1:
                table.insert(rows[start])
            else:
                table.insert_many(rows[start : start + batch])
        assert len(table) == count
        stored = sum(map(sys.getsizeof, table.stored_columns()))
        assert stored <= 5 * 8 * count * 1.15 + 5 * 1024


def _table(size: int) -> Table:
    table = Table(
        TableSchema.build(
            "t",
            [("id", DataType.INTEGER), ("a", DataType.INTEGER), ("b", DataType.TEXT)],
            primary_key=["id"],
        )
    )
    table.insert_many(
        [{"id": i, "a": i % 10, "b": "x" if i % 2 else "y"} for i in range(size)]
    )
    table.create_index(("a",))
    table.create_index(("b",))
    return table


def _buckets(table: Table) -> dict:
    indexes = [table.matching_index(["id"]), *map(table.matching_index, [["a"], ["b"]])]
    return {index.columns: copy.deepcopy(dict(index._buckets)) for index in indexes}


def _counted_update(table: Table, predicate, changes: dict) -> tuple[int, int, list]:
    """(bucket entries removed, bucket entries added, re-keyed index columns)."""
    counts = {"removed": 0, "added": 0}

    def bisect_left(bucket, position):
        counts["removed"] += 1
        return original_bisect(bucket, position)

    def insort(bucket, position):
        counts["added"] += 1
        return original_insort(bucket, position)

    original_bisect, original_insort = index_module.bisect_left, index_module.insort
    with mock.patch.object(index_module, "bisect_left", bisect_left), mock.patch.object(
        index_module, "insort", insort
    ), mock.patch.object(
        HashIndex, "rebuild", autospec=True, side_effect=HashIndex.rebuild
    ) as rebuild:
        table.update(predicate, changes)
    rekeyed = [call.args[0].columns for call in rebuild.call_args_list]
    return counts["removed"], counts["added"], rekeyed


class TestUpdateMovesBucketEntries:
    def test_an_update_of_k_rows_touches_k_entries_per_changed_index(self):
        for size in (200, 4000):
            table = _table(size)
            before = _buckets(table)
            changed = {3, 17, 18, 150}
            removed, added, rekeyed = _counted_update(
                table, lambda row: row["id"] in changed, {"a": 99}
            )
            # One move per changed row, whatever the table's size …
            assert (removed, added) == (len(changed), len(changed))
            assert rekeyed == [("a",)]
            # … and no entry of another index moves.
            after = _buckets(table)
            assert after[("id",)] == before[("id",)]
            assert after[("b",)] == before[("b",)]
            assert table.matching_index(["a"]).lookup((99,)) == sorted(changed)

    def test_a_key_change_moves_entries_in_each_index_over_it(self):
        table = _table(500)
        # Two rows cannot take one key: refused before any move.
        with pytest.raises(IntegrityError):
            _counted_update(table, lambda row: row["id"] in (7, 8), {"id": 1000})
        removed, added, rekeyed = _counted_update(
            table, lambda row: row["id"] == 7, {"id": 1000, "b": "z"}
        )
        assert rekeyed == [("id",), ("b",)]
        assert (removed, added) == (2, 2)
        assert table.matching_index(["id"]).lookup((1000,)) == [7]
        assert table.matching_index(["id"]).count((7,)) == 0

    def test_a_row_keeping_its_key_moves_nothing(self):
        table = _table(300)
        removed, added, rekeyed = _counted_update(
            table, lambda row: row["a"] == 4, {"a": 4}
        )
        assert rekeyed == [("a",)]
        assert (removed, added) == (0, 0)

    def test_an_emptied_bucket_goes_and_buckets_stay_in_extent_order(self):
        table = _table(100)
        index = table.matching_index(["a"])
        table.update(lambda row: row["a"] == 3, {"a": 5})
        assert not index.holds_any([(3,)])
        assert index.lookup((5,)) == sorted(
            position for position, row in enumerate(table.rows()) if row["a"] == 5
        )
        table.update(lambda row: row["id"] == 95, {"a": 3})
        assert index.lookup((3,)) == [95]
        assert index.holds_any([(3,)])
