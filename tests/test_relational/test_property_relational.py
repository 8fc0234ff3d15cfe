"""Property-based tests for the relational engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.expr.ast import BinaryOp, Identifier, Literal
from repro.relational import (
    Database,
    DataType,
    Compute,
    Pivot,
    Project,
    Query,
    Scan,
    Select,
    Sort,
    TableSchema,
    Union,
    optimize,
)

_rows = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.integers(0, 10_000),
            "age": st.one_of(st.integers(0, 99), st.none()),
            "name": st.sampled_from(["ann", "bob", "cal", "dee"]),
            "flag": st.booleans(),
        }
    ),
    max_size=30,
)


def _load(rows) -> Database:
    db = Database("prop")
    db.create_table(
        TableSchema.build(
            "t",
            [
                ("id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("name", DataType.TEXT),
                ("flag", DataType.BOOLEAN),
            ],
        )
    )
    db.insert("t", rows)
    return db


def _key(row):
    return tuple(sorted((k, repr(v)) for k, v in row.items()))


class TestAlgebraLaws:
    @given(_rows, st.integers(0, 99))
    @settings(max_examples=60)
    def test_select_is_subset(self, rows, cutoff):
        db = _load(rows)
        predicate = BinaryOp(">=", Identifier.of("age"), Literal(cutoff))
        selected = Select(Scan("t"), predicate).execute(db)
        everything = {_key(r) for r in Scan("t").execute(db)}
        assert all(_key(r) in everything for r in selected)
        assert all(r["age"] is not None and r["age"] >= cutoff for r in selected)

    @given(_rows)
    @settings(max_examples=60)
    def test_select_true_is_identity(self, rows):
        db = _load(rows)
        assert Select(Scan("t"), Literal(True)).execute(db) == Scan("t").execute(db)

    @given(_rows)
    @settings(max_examples=60)
    def test_union_counts_add(self, rows):
        db = _load(rows)
        union = Union((Scan("t"), Scan("t")))
        assert len(union.execute(db)) == 2 * len(rows)

    @given(_rows)
    @settings(max_examples=60)
    def test_sort_is_permutation(self, rows):
        db = _load(rows)
        sorted_rows = Sort(Scan("t"), (("age", True),)).execute(db)
        assert sorted(map(_key, sorted_rows)) == sorted(
            map(_key, Scan("t").execute(db))
        )

    @given(_rows)
    @settings(max_examples=60)
    def test_projection_narrows_columns(self, rows):
        db = _load(rows)
        projected = Project(Scan("t"), ("id", "name")).execute(db)
        assert all(set(r) == {"id", "name"} for r in projected)


class TestPivotRoundTrip:
    @given(_rows)
    @settings(max_examples=60)
    def test_unpivot_then_pivot_restores_unique_keyed_rows(self, rows):
        # Deduplicate ids: pivot keys must be unique to invert exactly.
        unique = list({row["id"]: row for row in rows}.values())
        db = _load(unique)
        # The un-pivot spelled as a union of one projection per attribute.
        unpivoted = Union(
            tuple(
                Project(
                    Compute(
                        Scan("t"),
                        (("attribute", Literal(column)), ("value", Identifier.of(column))),
                    ),
                    ("id", "attribute", "value"),
                )
                for column in ("age", "name", "flag")
            )
        )
        pivoted = Pivot(
            unpivoted,
            key_columns=("id",),
            attribute_column="attribute",
            value_column="value",
            attributes=("age", "name", "flag"),
        )
        assert pivoted.execute(db) == Scan("t").execute(db)


class TestOptimizerEquivalence:
    @given(_rows, st.integers(0, 99), st.integers(0, 99))
    @settings(max_examples=60)
    def test_optimized_plan_agrees_with_naive(self, rows, low, high):
        db = _load(rows)
        query = (
            Query.table("t")
            .where(BinaryOp(">=", Identifier.of("age"), Literal(low)))
            .where(BinaryOp("<=", Identifier.of("age"), Literal(high)))
            .select("id", "age")
        )
        assert query.execute(db, optimized=True) == query.execute(db, optimized=False)

    @given(_rows, st.integers(0, 99))
    @settings(max_examples=60)
    def test_select_pushdown_through_union(self, rows, cutoff):
        db = _load(rows)
        predicate = BinaryOp("<", Identifier.of("age"), Literal(cutoff))
        plan = Select(Union((Scan("t"), Scan("t"))), predicate)
        assert optimize(plan, db).execute(db) == plan.execute(db)
