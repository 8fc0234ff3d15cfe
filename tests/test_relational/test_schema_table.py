"""Tests for table schemas, tables, and databases."""

import pytest

from repro.errors import IntegrityError, ReproError, SchemaError
from repro.relational import Column, DataType, Database, Table, TableSchema


def patients_schema() -> TableSchema:
    return TableSchema.build(
        "patients",
        [("id", DataType.INTEGER), ("name", DataType.TEXT), ("smoker", DataType.BOOLEAN)],
        primary_key=["id"],
    )


def _indexed(table, columns, key):
    """The rows ``table``'s index on exactly ``columns`` holds at ``key``."""
    index = table.matching_index(columns)
    assert index is not None and index.columns == tuple(columns)
    return list(table.rows_at(index.lookup(key)))


class TestTableSchema:
    def test_build_from_pairs(self):
        schema = patients_schema()
        assert schema.column_names == ("id", "name", "smoker")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [("a", DataType.TEXT), ("a", DataType.TEXT)])

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", [("a", DataType.TEXT)], primary_key=["b"])

    def test_column_lookup(self):
        schema = patients_schema()
        assert schema.column("name").dtype is DataType.TEXT
        with pytest.raises(SchemaError):
            schema.column("missing")

    def test_with_columns(self):
        extended = patients_schema().with_columns([Column("age", DataType.INTEGER)])
        assert extended.has_column("age")

    def test_renamed(self):
        assert patients_schema().renamed("people").name == "people"

    def test_str_renders(self):
        assert "PRIMARY KEY (id)" in str(patients_schema())

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("", [("a", DataType.TEXT)])

    def test_cached_names_leave_eq_hash_repr_unchanged(self):
        schema, fresh = patients_schema(), patients_schema()
        assert schema.column_names is schema.column_names
        assert schema.column_set == frozenset({"id", "name", "smoker"})
        assert schema == fresh and hash(schema) == hash(fresh)
        assert repr(schema) == repr(fresh)


class TestTableInsert:
    def test_insert_and_read(self):
        table = Table(patients_schema())
        table.insert({"id": 1, "name": "Ada", "smoker": True})
        assert table.rows() == [{"id": 1, "name": "Ada", "smoker": True}]

    def test_missing_columns_become_null(self):
        table = Table(patients_schema())
        row = table.insert({"id": 1})
        assert row["name"] is None

    def test_unknown_column_rejected(self):
        table = Table(patients_schema())
        with pytest.raises(SchemaError):
            table.insert({"id": 1, "oops": 2})

    def test_type_coercion_applies(self):
        table = Table(patients_schema())
        row = table.insert({"id": "7", "smoker": "yes"})
        assert row["id"] == 7 and row["smoker"] is True

    def test_pk_uniqueness(self):
        table = Table(patients_schema())
        table.insert({"id": 1})
        with pytest.raises(IntegrityError):
            table.insert({"id": 1})

    def test_pk_not_null(self):
        table = Table(patients_schema())
        with pytest.raises(IntegrityError):
            table.insert({"name": "NoKey"})

    def test_not_null_enforced(self):
        schema = TableSchema(
            "t", (Column("a", DataType.TEXT, nullable=False),)
        )
        with pytest.raises(IntegrityError):
            Table(schema).insert({"a": None})

    def test_rows_are_copies(self):
        table = Table(patients_schema())
        table.insert({"id": 1, "name": "Ada"})
        table.rows()[0]["name"] = "hacked"
        assert table.rows()[0]["name"] == "Ada"

    def test_insert_many_counts(self):
        table = Table(patients_schema())
        assert table.insert_many([{"id": i} for i in range(5)]) == 5
        assert len(table) == 5


class TestTableUpdateDelete:
    def test_update(self):
        table = Table(patients_schema())
        table.insert({"id": 1, "smoker": False})
        count = table.update(lambda r: r["id"] == 1, {"smoker": True})
        assert count == 1
        assert table.rows()[0]["smoker"] is True

    def test_update_unknown_column_rejected(self):
        table = Table(patients_schema())
        with pytest.raises(SchemaError):
            table.update(lambda r: True, {"missing": 1})

    def _pairs(self) -> tuple[Table, list]:
        """A table of five (id, a, b) rows and the listener calls it hears."""
        table = Table(
            TableSchema(
                "pairs",
                (
                    Column("id", DataType.INTEGER, nullable=False),
                    Column("a", DataType.INTEGER, nullable=False),
                    Column("b", DataType.INTEGER),
                ),
                primary_key=("id",),
            )
        )
        table.insert_many([{"id": i, "a": i, "b": i} for i in range(5)])
        calls: list = []
        table.set_mutation_listener(lambda op, payload: calls.append(op))
        return table, calls

    def _unchanged(self, table: Table, calls: list) -> None:
        assert table.rows() == [{"id": i, "a": i, "b": i} for i in range(5)]
        assert table.version == 5
        assert calls == []
        assert _indexed(table, ("id",), (2,)) == [{"id": 2, "a": 2, "b": 2}]

    def test_a_predicate_that_raises_changes_nothing(self):
        table, calls = self._pairs()

        def third_raises(row):
            if row["id"] == 2:
                raise ValueError("third row")
            return True

        with pytest.raises(ValueError):
            table.update(third_raises, {"a": 9})
        self._unchanged(table, calls)

    def test_a_change_that_does_not_coerce_changes_nothing(self):
        table, calls = self._pairs()
        with pytest.raises(ReproError):
            table.update(lambda r: True, {"a": 5, "b": "notanint"})
        self._unchanged(table, calls)

    def test_an_update_keeps_not_null(self):
        table, calls = self._pairs()
        with pytest.raises(IntegrityError):
            table.update(lambda r: r["id"] == 1, {"a": None})
        self._unchanged(table, calls)

    @pytest.mark.parametrize(
        "predicate, changes",
        [
            (lambda r: r["id"] == 3, {"id": 1}),  # a key another row holds
            (lambda r: r["id"] > 2, {"id": 7}),  # two rows onto one key
            (lambda r: r["id"] == 0, {"id": None}),
        ],
        ids=["held", "collide", "null"],
    )
    def test_an_update_keeps_the_primary_key(self, predicate, changes):
        table, calls = self._pairs()
        with pytest.raises(IntegrityError):
            table.update(predicate, changes)
        self._unchanged(table, calls)

    def test_an_update_may_move_keys_onto_keys_it_frees(self):
        table, calls = self._pairs()
        assert table.update(lambda r: r["id"] == 4, {"id": 9, "b": None}) == 1
        assert table.update(lambda r: r["id"] == 3, {"id": 3, "a": 7}) == 1
        assert _indexed(table, ("id",), (9,)) == [{"id": 9, "a": 4, "b": None}]
        assert _indexed(table, ("id",), (3,)) == [{"id": 3, "a": 7, "b": 3}]
        assert table.version == 7
        assert calls == ["update", "update"]

    def test_delete(self):
        table = Table(patients_schema())
        table.insert_many([{"id": 1}, {"id": 2}, {"id": 3}])
        assert table.delete(lambda r: r["id"] > 1) == 2
        assert len(table) == 1

    def test_delete_then_reinsert_same_pk(self):
        table = Table(patients_schema())
        table.insert({"id": 1})
        table.delete(lambda r: True)
        table.insert({"id": 1})  # pk index must have been rebuilt
        assert len(table) == 1


class TestIndexes:
    def test_lookup_via_index(self):
        table = Table(patients_schema())
        table.insert_many(
            [{"id": i, "smoker": i % 2 == 0} for i in range(1, 11)]
        )
        table.create_index(("smoker",))
        rows = _indexed(table, ("smoker",), (True,))
        assert {r["id"] for r in rows} == {2, 4, 6, 8, 10}

    def test_pk_lookup(self):
        table = Table(patients_schema())
        table.insert_many([{"id": i} for i in range(1, 6)])
        assert _indexed(table, ("id",), (3,))[0]["id"] == 3

    def test_index_stays_fresh_after_update(self):
        table = Table(patients_schema())
        table.insert({"id": 1, "name": "Ada"})
        table.create_index(("name",))
        table.update(lambda r: True, {"name": "Grace"})
        assert _indexed(table, ("name",), ("Grace",))
        assert not _indexed(table, ("name",), ("Ada",))

    def test_index_on_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            Table(patients_schema()).create_index(("missing",))


class TestDatabase:
    def test_create_and_get(self):
        db = Database("d")
        db.create_table(patients_schema())
        assert db.table("patients").name == "patients"

    def test_duplicate_table_rejected(self):
        db = Database("d")
        db.create_table(patients_schema())
        with pytest.raises(SchemaError):
            db.create_table(patients_schema())

    def test_ensure_table_idempotent(self):
        db = Database("d")
        first = db.ensure_table(patients_schema())
        second = db.ensure_table(patients_schema())
        assert first is second

    def test_ensure_table_conflicting_schema_rejected(self):
        db = Database("d")
        db.ensure_table(patients_schema())
        other = TableSchema.build("patients", [("x", DataType.TEXT)])
        with pytest.raises(SchemaError):
            db.ensure_table(other)

    def test_drop_table(self):
        db = Database("d")
        db.create_table(patients_schema())
        db.drop_table("patients")
        assert not db.has_table("patients")

    def test_missing_table_raises(self):
        with pytest.raises(SchemaError):
            Database("d").table("nope")

    def test_total_rows(self):
        db = Database("d")
        db.create_table(patients_schema())
        db.insert("patients", [{"id": 1}, {"id": 2}])
        assert db.total_rows() == 2

    def test_table_names_sorted(self):
        db = Database("d")
        db.create_table(TableSchema.build("zz", [("a", DataType.TEXT)]))
        db.create_table(TableSchema.build("aa", [("a", DataType.TEXT)]))
        assert db.table_names() == ["aa", "zz"]
