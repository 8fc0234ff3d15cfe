"""Tests for the fluent query builder and the optimizer."""

import pytest

from repro.expr import parse
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Compute,
    Database,
    DataType,
    Join,
    Project,
    Query,
    Rename,
    Scan,
    Select,
    Sort,
    TableSchema,
    Union,
    optimize,
)
from repro.relational.query import record_local


@pytest.fixture
def db() -> Database:
    database = Database("q")
    database.create_table(
        TableSchema.build(
            "people",
            [("id", DataType.INTEGER), ("name", DataType.TEXT), ("age", DataType.INTEGER)],
        )
    )
    database.insert(
        "people",
        [
            {"id": 1, "name": "ann", "age": 60},
            {"id": 2, "name": "bob", "age": 30},
            {"id": 3, "name": "cal", "age": 70},
        ],
    )
    database.create_table(
        TableSchema.build(
            "visits", [("person_id", DataType.INTEGER), ("kind", DataType.TEXT)]
        )
    )
    database.insert(
        "visits",
        [
            {"person_id": 1, "kind": "egd"},
            {"person_id": 2, "kind": "colo"},
            {"person_id": 1, "kind": "colo"},
        ],
    )
    return database


class TestBuilder:
    def test_where_select(self, db):
        rows = Query.table("people").where("age >= 60").select("name").execute(db)
        assert {r["name"] for r in rows} == {"ann", "cal"}

    def test_compute(self, db):
        rows = Query(
            Compute(Scan("people"), (("next_age", parse("age + 1")),))
        ).execute(db)
        assert rows[0]["next_age"] == 61

    def test_rename(self, db):
        rows = Query(Rename(Scan("people"), (("name", "full_name"),))).execute(db)
        assert "full_name" in rows[0]

    def test_join(self, db):
        rows = (
            Query.table("people")
            .join(Query.table("visits"), on=[("id", "person_id")])
            .execute(db)
        )
        assert len(rows) == 3

    def test_union(self, db):
        assert len(Query(Union((Scan("people"), Scan("people")))).execute(db)) == 6

    def test_order_by_desc_prefix(self, db):
        rows = Query(Sort(Scan("people"), (("age", False),))).execute(db)
        assert rows[0]["name"] == "cal"

    def test_immutable_builder(self, db):
        base = Query.table("people")
        filtered = base.where("age > 65")
        assert len(base.execute(db)) == 3
        assert len(filtered.execute(db)) == 1


@pytest.fixture
def shapes() -> Database:
    """Empty tables holding the columns the optimizer tests' plans name."""
    database = Database("shapes")
    tables = (("t", ("a", "b")), ("l", ("id", "a", "x")), ("r", ("id", "b", "y")))
    for name, columns in tables:
        database.create_table(
            TableSchema.build(name, [(column, DataType.INTEGER) for column in columns])
        )
    return database


class TestOptimizer:
    def test_merges_consecutive_selects(self, shapes):
        plan = Select(Select(Scan("t"), parse("a = 1")), parse("b = 2"))
        optimized = optimize(plan, shapes)
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, Scan)
        assert optimized.predicate.op == "AND"

    def test_pushes_select_into_join_side(self, shapes):
        join = Join(
            Project(Scan("l"), ("id", "a")),
            Project(Scan("r"), ("id", "b")),
            on=(("id", "id"),),
        )
        optimized = optimize(Select(join, parse("a = 1")), shapes)
        assert isinstance(optimized, Join)
        # The select lands in the left side, below the projection too.
        assert isinstance(optimized.left, Project)
        assert isinstance(optimized.left.child, Select)

    def test_leaves_cross_side_predicate_above_join(self, shapes):
        join = Join(
            Project(Scan("l"), ("id", "a")),
            Project(Scan("r"), ("id", "b")),
            on=(("id", "id"),),
        )
        optimized = optimize(Select(join, parse("a = b")), shapes)
        assert isinstance(optimized, Select)

    def test_no_push_into_left_join(self, shapes):
        join = Join(
            Project(Scan("l"), ("id", "a")),
            Project(Scan("r"), ("id", "b")),
            on=(("id", "id"),),
            how="left",
        )
        optimized = optimize(Select(join, parse("b = 1")), shapes)
        assert isinstance(optimized, Select)

    def test_optimized_equals_naive(self, db):
        query = (
            Query.table("people")
            .join(Query.table("visits"), on=[("id", "person_id")])
            .where("age >= 50")
            .where("kind = 'colo'")
            .select("name", "kind")
        )
        assert query.execute(db, optimized=True) == query.execute(db, optimized=False)


@pytest.fixture
def records() -> Database:
    """Two tables keyed on ``record_id`` and a code book without it."""
    database = Database("records")
    for name, columns in (
        ("items", [("record_id", DataType.INTEGER), ("code", DataType.INTEGER)]),
        ("notes", [("record_id", DataType.INTEGER), ("code", DataType.INTEGER)]),
        ("codes", [("code", DataType.INTEGER), ("label", DataType.TEXT)]),
    ):
        database.create_table(TableSchema.build(name, columns))
    return database


class TestRecordLocal:
    """``record_local``: the left-spine table of a plan each of whose rows
    comes from one record's rows, or None."""

    def test_a_lookup_join_is_accepted(self, records):
        plan = Join(Scan("items"), Scan("codes"), on=(("code", "code"),))
        assert record_local(plan, "record_id", records) == "items"

    def test_a_join_on_the_record_is_accepted(self, records):
        plan = Join(
            Select(Scan("items"), parse("code > 1")),
            Scan("notes"),
            on=(("record_id", "record_id"),),
        )
        assert record_local(plan, "record_id", records) == "items"

    def test_a_sort_is_accepted(self, records):
        plan = Sort(Project(Scan("items"), ("record_id", "code")), (("code", True),))
        assert record_local(plan, "record_id", records) == "items"

    def test_an_aggregate_keyed_on_the_record_is_accepted(self, records):
        count = (AggregateSpec("COUNT", None, "n"),)
        keyed = Aggregate(Scan("notes"), ("record_id",), count)
        assert record_local(keyed, "record_id", records) == "notes"
        across = Aggregate(Scan("notes"), ("code",), count)
        assert record_local(across, "record_id", records) is None

    def test_a_union_is_refused(self, records):
        plan = Union((Scan("items"), Scan("notes")))
        assert record_local(plan, "record_id", records) is None

    def test_a_join_across_records_is_refused(self, records):
        plan = Join(Scan("items"), Scan("notes"), on=(("code", "code"),))
        assert record_local(plan, "record_id", records) is None

    def test_a_rename_of_the_record_column_is_refused(self, records):
        plan = Rename(Scan("items"), (("record_id", "rid"),))
        assert record_local(plan, "record_id", records) is None
