"""Tests for the relational algebra operators."""

import pytest

from repro.errors import QueryError
from repro.expr import parse
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    Database,
    DataType,
    Join,
    Pivot,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    TableSchema,
    Union,
    Values,
)


@pytest.fixture
def db() -> Database:
    database = Database("test")
    database.create_table(
        TableSchema.build(
            "visits",
            [
                ("id", DataType.INTEGER),
                ("patient", DataType.TEXT),
                ("age", DataType.INTEGER),
                ("hypoxia", DataType.BOOLEAN),
            ],
            primary_key=["id"],
        )
    )
    database.insert(
        "visits",
        [
            {"id": 1, "patient": "ann", "age": 64, "hypoxia": True},
            {"id": 2, "patient": "bob", "age": 40, "hypoxia": False},
            {"id": 3, "patient": "cal", "age": 71, "hypoxia": True},
        ],
    )
    database.create_table(
        TableSchema.build(
            "labs", [("visit_id", DataType.INTEGER), ("result", DataType.TEXT)]
        )
    )
    database.insert(
        "labs",
        [
            {"visit_id": 1, "result": "ok"},
            {"visit_id": 1, "result": "high"},
            {"visit_id": 3, "result": "low"},
        ],
    )
    return database


class TestScanValuesSelect:
    def test_scan(self, db):
        assert len(Scan("visits").execute(db)) == 3

    def test_values(self, db):
        plan = Values(("a", "b"), ((1, 2), (3, 4)))
        assert plan.execute(db) == [{"a": 1, "b": 2}, {"a": 3, "b": 4}]

    def test_select_filters(self, db):
        plan = Select(Scan("visits"), parse("age >= 60"))
        assert {r["id"] for r in plan.execute(db)} == {1, 3}

    def test_select_null_filters_out(self, db):
        db.insert("visits", [{"id": 9, "patient": "nul"}])  # age NULL
        plan = Select(Scan("visits"), parse("age >= 0"))
        assert all(r["id"] != 9 for r in plan.execute(db))


class TestProjectComputeRename:
    def test_project_order(self, db):
        plan = Project(Scan("visits"), ("patient", "id"))
        assert list(plan.execute(db)[0].keys()) == ["patient", "id"]

    def test_project_unknown_column_raises(self, db):
        with pytest.raises(QueryError):
            Project(Scan("visits"), ("nope",)).execute(db)

    def test_compute(self, db):
        plan = Compute(Scan("visits"), (("age_months", parse("age * 12")),))
        assert plan.execute(db)[0]["age_months"] == 768

    def test_compute_can_overwrite(self, db):
        plan = Compute(Scan("visits"), (("age", parse("age + 1")),))
        assert plan.execute(db)[0]["age"] == 65

    def test_rename(self, db):
        plan = Rename(Scan("visits"), (("patient", "name"),))
        assert "name" in plan.execute(db)[0]
        assert plan.output_columns(db) == ("id", "name", "age", "hypoxia")


class TestJoin:
    def test_inner_join(self, db):
        plan = Join(Scan("visits"), Scan("labs"), on=(("id", "visit_id"),))
        rows = plan.execute(db)
        assert len(rows) == 3
        assert all("result" in r for r in rows)

    def test_left_join_keeps_unmatched(self, db):
        plan = Join(Scan("visits"), Scan("labs"), on=(("id", "visit_id"),), how="left")
        rows = plan.execute(db)
        assert len(rows) == 4  # visit 2 kept with NULL result
        bob = next(r for r in rows if r["patient"] == "bob")
        assert bob["result"] is None

    def test_null_keys_never_match(self, db):
        db.insert("labs", [{"visit_id": None, "result": "orphan"}])
        db.insert("visits", [{"id": 10}])
        plan = Join(Scan("visits"), Scan("labs"), on=(("id", "visit_id"),))
        assert all(r["result"] != "orphan" for r in plan.execute(db))

    def test_column_collision_rejected(self, db):
        with pytest.raises(QueryError):
            Join(Scan("visits"), Scan("visits"), on=(("id", "id"),)).execute(db)

    def test_bad_join_type(self, db):
        with pytest.raises(QueryError):
            Join(Scan("visits"), Scan("labs"), on=(("id", "visit_id"),), how="outer").execute(db)


class TestUnionDistinct:
    def test_union_all(self, db):
        plan = Union((Scan("visits"), Scan("visits")))
        assert len(plan.execute(db)) == 6

    def test_union_column_mismatch_rejected(self, db):
        with pytest.raises(QueryError):
            Union((Scan("visits"), Scan("labs"))).execute(db)

    def test_union_empty(self, db):
        assert Union(()).execute(db) == []


class TestUnpivotPivot:
    def test_pivot_inverts_unpivot(self, db):
        # The un-pivot spelled as a union of one projection per attribute.
        unpivoted = Union(
            tuple(
                Project(
                    Compute(
                        Scan("visits"),
                        (("attribute", parse(f"'{column}'")), ("value", parse(column))),
                    ),
                    ("id", "attribute", "value"),
                )
                for column in ("patient", "age", "hypoxia")
            )
        )
        pivoted = Pivot(
            unpivoted,
            key_columns=("id",),
            attribute_column="attribute",
            value_column="value",
            attributes=("patient", "age", "hypoxia"),
        )
        assert pivoted.execute(db) == Scan("visits").execute(db)

    def test_pivot_missing_attribute_is_null(self, db):
        plan = Pivot(
            Scan("labs"),
            key_columns=("visit_id",),
            attribute_column="result",
            value_column="result",
            attributes=("nonexistent",),
        )
        assert all(r["nonexistent"] is None for r in plan.execute(db))


class TestAggregate:
    def test_count_star(self, db):
        plan = Aggregate(Scan("visits"), (), (AggregateSpec("COUNT", None, "n"),))
        assert plan.execute(db) == [{"n": 3}]

    def test_group_by(self, db):
        plan = Aggregate(
            Scan("visits"),
            ("hypoxia",),
            (AggregateSpec("COUNT", None, "n"), AggregateSpec("AVG", "age", "avg_age")),
        )
        rows = {r["hypoxia"]: r for r in plan.execute(db)}
        assert rows[True]["n"] == 2
        assert rows[True]["avg_age"] == 67.5

    def test_min_max_sum(self, db):
        plan = Aggregate(
            Scan("visits"),
            (),
            (
                AggregateSpec("MIN", "age", "lo"),
                AggregateSpec("MAX", "age", "hi"),
                AggregateSpec("SUM", "age", "total"),
            ),
        )
        assert plan.execute(db) == [{"lo": 40, "hi": 71, "total": 175}]

    def test_count_distinct(self, db):
        plan = Aggregate(
            Scan("labs"), (), (AggregateSpec("COUNT_DISTINCT", "visit_id", "n"),)
        )
        assert plan.execute(db)[0]["n"] == 2

    def test_empty_input_no_groups_yields_one_row(self, db):
        plan = Aggregate(
            Select(Scan("visits"), parse("age > 1000")),
            (),
            (AggregateSpec("COUNT", None, "n"),),
        )
        assert plan.execute(db) == [{"n": 0}]

    def test_string_agg_in_order(self, db):
        plan = Aggregate(
            Sort(Scan("labs"), (("result", True),)),
            ("visit_id",),
            (AggregateSpec("STRING_AGG", "result", "all_results"),),
        )
        rows = {r["visit_id"]: r["all_results"] for r in plan.execute(db)}
        assert rows[1] == "high;ok"

    def test_unknown_aggregate_raises(self, db):
        plan = Aggregate(Scan("visits"), (), (AggregateSpec("MEDIAN", "age", "m"),))
        with pytest.raises(QueryError):
            plan.execute(db)


class TestSortLimitCoerce:
    def test_sort_ascending(self, db):
        plan = Sort(Scan("visits"), (("age", True),))
        assert [r["age"] for r in plan.execute(db)] == [40, 64, 71]

    def test_sort_descending(self, db):
        plan = Sort(Scan("visits"), (("age", False),))
        assert [r["age"] for r in plan.execute(db)] == [71, 64, 40]

    def test_sort_nulls_first(self, db):
        db.insert("visits", [{"id": 99}])
        plan = Sort(Scan("visits"), (("age", True),))
        assert plan.execute(db)[0]["age"] is None

    def test_composite_sort(self, db):
        plan = Sort(Scan("visits"), (("hypoxia", True), ("age", False)))
        ids = [r["id"] for r in plan.execute(db)]
        assert ids == [2, 3, 1]

    def test_coerce(self, db):
        plan = Coerce(
            Values(("n", "flag"), (("5", "true"),)),
            (("n", DataType.INTEGER), ("flag", DataType.BOOLEAN)),
        )
        assert plan.execute(db) == [{"n": 5, "flag": True}]


class TestWalk:
    def test_walk_visits_all_nodes(self, db):
        plan = Select(Project(Scan("visits"), ("id",)), parse("id > 1"))
        kinds = [type(node).__name__ for node in plan.walk()]
        assert kinds == ["Select", "Project", "Scan"]
