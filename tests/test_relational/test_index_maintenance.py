"""Index maintenance under random writes.

An update re-keys only the indexes (primary key included) over a column
it changes; inserts add their positions and deletes re-key everything.
The oracle is a ``HashIndex`` rebuilt from the table's rows after every
step: each index the table holds must answer ``lookup`` like it, for
every key the rows hold and every key they could hold.
"""

from __future__ import annotations

from itertools import product
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational import DataType, Table, TableSchema
from repro.relational.index import HashIndex

IDS = range(8)
AS = (None, 0, 1, 2)
BS = (None, "x", "y")
DOMAIN = {"id": IDS, "a": AS, "b": BS}
INDEXES = (("a",), ("b",), ("a", "b"), ("b", "id"))


def _table() -> Table:
    return Table(
        TableSchema.build(
            "t",
            [("id", DataType.INTEGER), ("a", DataType.INTEGER), ("b", DataType.TEXT)],
            primary_key=["id"],
        )
    )


def _check(table: Table) -> None:
    rows = table.rows()
    for columns in [table.schema.primary_key, *table.secondary_index_columns()]:
        index = table.matching_index(columns)
        assert index is not None and index.columns == columns
        fresh = HashIndex(columns)
        fresh.rebuild({name: [row[name] for row in rows] for name in columns})
        values = [
            {*DOMAIN[column], *(row[column] for row in rows)} for column in columns
        ]
        for key in product(*values):
            assert index.lookup(key) == fresh.lookup(key), (columns, key)


rows = st.fixed_dictionaries(
    {"id": st.sampled_from(IDS), "a": st.sampled_from(AS), "b": st.sampled_from(BS)}
)
changes = st.dictionaries(
    st.sampled_from(["id", "a", "b"]),
    st.sampled_from([*IDS, None, "x"]),
    min_size=1,
    max_size=2,
)
ops = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("insert_many"), st.lists(rows, max_size=3)),
    st.tuples(st.just("update"), st.tuples(st.sampled_from(IDS), changes)),
    st.tuples(st.just("delete"), st.sampled_from(IDS)),
    st.tuples(st.just("create_index"), st.sampled_from(INDEXES)),
    st.tuples(st.just("drop_index"), st.sampled_from(INDEXES)),
)


def _spied_rebuild():
    return mock.patch.object(
        HashIndex, "rebuild", autospec=True, side_effect=HashIndex.rebuild
    )


class TestIndexMaintenance:
    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(ops, max_size=25))
    def test_every_index_answers_like_a_rebuilt_one(self, program):
        table = _table()
        for op, arg in program:
            try:
                if op == "insert":
                    table.insert(arg)
                elif op == "insert_many":
                    table.insert_many(arg)
                elif op == "update":
                    low, change = arg
                    table.update(lambda row: (row["id"] or 0) >= low, change)
                elif op == "delete":
                    table.delete(lambda row: row["id"] == arg)
                elif op == "create_index":
                    table.create_index(arg)
                else:
                    table.drop_index(arg)
            except ReproError:
                pass  # a refused write changes nothing
            _check(table)

    def test_an_update_rekeys_only_the_indexes_over_its_columns(self):
        table = _table()
        table.insert_many([{"id": i, "a": i % 3, "b": "x"} for i in IDS])
        table.create_index(("a",))
        table.create_index(("b", "id"))
        with _spied_rebuild() as rebuild:
            table.update(lambda row: row["id"] < 3, {"b": "y"})
        assert [call.args[0].columns for call in rebuild.call_args_list] == [
            ("b", "id")
        ]
        _check(table)
        with _spied_rebuild() as rebuild:
            table.update(lambda row: row["id"] == 7, {"id": 9})
        assert [call.args[0].columns for call in rebuild.call_args_list] == [
            ("id",),
            ("b", "id"),
        ]
        assert table.matching_index(("id",)).lookup((9,)) == [7]
