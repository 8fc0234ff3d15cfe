"""Optimized ≡ naive-streaming ≡ interpreted execution, row for row.

The tentpole guarantee of the streaming/compiled/index-aware executor:
``Query.execute(db, optimized=True)`` must agree with ``optimized=False``
and with the reference interpreter (`execute_interpreted`, the seed
semantics preserved as an executable spec) on every database — including
plans the optimizer rewrites into IndexLookup, TopK, and pushed-down
projections.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RelationalError, ReproError
from repro.expr.ast import BinaryOp, Identifier, InList, Literal
from repro.expr.analysis import referenced_identifiers
from repro.expr.parser import parse
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Database,
    DataType,
    IndexLookup,
    InLookup,
    Join,
    Limit,
    Pivot,
    Project,
    Query,
    Scan,
    Select,
    Sort,
    TableSchema,
    TopK,
    Union,
    execute_interpreted,
    optimize,
    prepare_stream_plan,
)
from repro.relational.query import rebind_in_lists

_NAMES = ["ann", "bob", "cal", "dee", "eve"]

_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.integers(0, 40),
            "age": st.one_of(st.integers(0, 99), st.none()),
            "name": st.sampled_from(_NAMES),
            "smoker": st.booleans(),
        }
    ),
    max_size=40,
)

_visit_rows = st.lists(
    st.fixed_dictionaries(
        {
            "visit_id": st.integers(0, 60),
            "patient_id": st.integers(0, 40),
            "score": st.one_of(st.integers(-5, 20), st.none()),
        }
    ),
    max_size=40,
)


def _load(patients, visits) -> Database:
    """Two indexed tables so equality filters can lower onto IndexLookup."""
    db = Database("prop")
    db.create_table(
        TableSchema.build(
            "patients",
            [
                ("patient_id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("name", DataType.TEXT),
                ("smoker", DataType.BOOLEAN),
            ],
        )
    )
    db.create_table(
        TableSchema.build(
            "visits",
            [
                ("visit_id", DataType.INTEGER),
                ("patient_id", DataType.INTEGER),
                ("score", DataType.INTEGER),
            ],
        )
    )
    db.insert("patients", patients)
    db.insert("visits", visits)
    db.table("patients").create_index(("name",))
    db.table("patients").create_index(("patient_id",))
    db.table("visits").create_index(("patient_id", "score"))
    return db


def _assert_all_paths_agree(plan, db) -> None:
    """Interpreted (spec), streaming (naive), and optimized must be identical."""
    reference = execute_interpreted(plan, db)
    assert plan.execute(db) == reference
    assert optimize(plan, db).execute(db) == reference


class TestPropertyEquivalence:
    @given(_patient_rows, st.sampled_from(_NAMES))
    @settings(max_examples=60)
    def test_indexed_equality_filter(self, patients, name):
        db = _load(patients, [])
        plan = Select(
            Scan("patients"),
            BinaryOp("=", Identifier.of("name"), Literal(name)),
        )
        assert isinstance(optimize(plan, db), IndexLookup)
        _assert_all_paths_agree(plan, db)

    @given(_patient_rows, st.sampled_from(_NAMES), st.integers(0, 99))
    @settings(max_examples=60)
    def test_indexed_equality_with_residual(self, patients, name, cutoff):
        db = _load(patients, [])
        plan = Select(
            Scan("patients"),
            BinaryOp(
                "AND",
                BinaryOp("=", Identifier.of("name"), Literal(name)),
                BinaryOp(">=", Identifier.of("age"), Literal(cutoff)),
            ),
        )
        optimized = optimize(plan, db)
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, IndexLookup)
        _assert_all_paths_agree(plan, db)

    @given(_visit_rows, st.integers(0, 40), st.integers(-5, 20))
    @settings(max_examples=60)
    def test_composite_index_lookup(self, visits, patient_id, score):
        db = _load([], visits)
        plan = Select(
            Scan("visits"),
            BinaryOp(
                "AND",
                BinaryOp("=", Identifier.of("patient_id"), Literal(patient_id)),
                BinaryOp("=", Identifier.of("score"), Literal(score)),
            ),
        )
        assert isinstance(optimize(plan, db), IndexLookup)
        _assert_all_paths_agree(plan, db)

    @given(_patient_rows, _visit_rows, st.integers(0, 99))
    @settings(max_examples=50)
    def test_join_with_pushdowns(self, patients, visits, cutoff):
        db = _load(patients, visits)
        plan = Project(
            Select(
                Join(Scan("patients"), Scan("visits"), (("patient_id", "patient_id"),)),
                BinaryOp(">=", Identifier.of("age"), Literal(cutoff)),
            ),
            ("patient_id", "visit_id"),
        )
        _assert_all_paths_agree(plan, db)

    @given(_patient_rows, st.integers(0, 15))
    @settings(max_examples=60)
    def test_topk_fusion(self, patients, count):
        db = _load(patients, [])
        plan = Limit(Sort(Scan("patients"), (("age", True), ("name", False))), count)
        assert isinstance(optimize(plan, db), TopK)
        _assert_all_paths_agree(plan, db)

    @given(_patient_rows, st.sampled_from(_NAMES))
    @settings(max_examples=50)
    def test_union_with_select_pushdown(self, patients, name):
        db = _load(patients, [])
        plan = Select(
            Union((Scan("patients"), Scan("patients"))),
            BinaryOp("=", Identifier.of("name"), Literal(name)),
        )
        _assert_all_paths_agree(plan, db)

    @given(_patient_rows, _visit_rows, st.integers(0, 99), st.integers(0, 10))
    @settings(max_examples=40)
    def test_full_query_pipeline(self, patients, visits, cutoff, count):
        db = _load(patients, visits)
        query = (
            Query.table("patients")
            .where(BinaryOp(">=", Identifier.of("age"), Literal(cutoff)))
            .join(Query.table("visits"), on=[("patient_id", "patient_id")])
            .compute(half_score="score / 2")
            .select("patient_id", "visit_id", "half_score")
            .order_by("patient_id", "-visit_id")
            .limit(count)
        )
        reference = execute_interpreted(query.plan, db)
        assert query.execute(db, optimized=False) == reference
        assert query.execute(db, optimized=True) == reference

    @given(_patient_rows)
    @settings(max_examples=40)
    def test_aggregate_after_filter(self, patients):
        db = _load(patients, [])
        query = (
            Query.table("patients")
            .where("age IS NOT NULL")
            .aggregate(
                ["name"],
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("AVG", "age", "mean_age"),
            )
            .order_by("name")
        )
        reference = execute_interpreted(query.plan, db)
        assert query.execute(db, optimized=False) == reference
        assert query.execute(db, optimized=True) == reference


class TestOptimizerShapes:
    """The rewrites the bench relies on actually fire (and only when safe)."""

    def _db(self):
        return _load(
            [
                {"patient_id": i, "age": 30 + i, "name": _NAMES[i % 5], "smoker": i % 2 == 0}
                for i in range(10)
            ],
            [
                {"visit_id": i, "patient_id": i % 10, "score": i % 7}
                for i in range(20)
            ],
        )

    def test_index_lowering_requires_database(self):
        plan = Select(
            Scan("patients"), BinaryOp("=", Identifier.of("name"), Literal("ann"))
        )
        assert not isinstance(optimize(plan), IndexLookup)
        assert isinstance(optimize(plan, self._db()), IndexLookup)

    def test_index_lowering_skips_unindexed_column(self):
        plan = Select(
            Scan("patients"), BinaryOp("=", Identifier.of("age"), Literal(33))
        )
        assert not isinstance(optimize(plan, self._db()), IndexLookup)

    def test_index_lowering_skips_null_literal(self):
        plan = Select(
            Scan("patients"), BinaryOp("=", Identifier.of("name"), Literal(None))
        )
        assert not isinstance(optimize(plan, self._db()), IndexLookup)

    def test_index_lookup_respects_sql_equality(self):
        # hash(True) == hash(1), so probing an INTEGER index with TRUE lands
        # in the 1-bucket — but SQL `=` distinguishes booleans from numbers,
        # so the lookup's post-filter must reject those rows.
        db = Database("d")
        db.create_table(
            TableSchema.build("t", [("k", DataType.INTEGER), ("v", DataType.TEXT)])
        )
        db.insert("t", [{"k": 1, "v": "one"}, {"k": 2, "v": "two"}])
        index = db.table("t").create_index(("k",))
        assert index.lookup((True,))  # the raw bucket DOES contain k=1 rows
        plan = Select(Scan("t"), BinaryOp("=", Identifier.of("k"), Literal(True)))
        optimized = optimize(plan, db)
        assert isinstance(optimized, IndexLookup)
        assert optimized.execute(db) == execute_interpreted(plan, db) == []

    def test_negative_limit_not_fused(self):
        plan = Limit(Sort(Scan("patients"), (("age", True),)), -2)
        db = self._db()
        assert not isinstance(optimize(plan, db), TopK)
        _assert_all_paths_agree(plan, db)

    def test_topk_keeps_stable_tie_order(self):
        db = Database("d")
        db.create_table(
            TableSchema.build("t", [("k", DataType.INTEGER), ("seq", DataType.INTEGER)])
        )
        db.insert("t", [{"k": 1, "seq": i} for i in range(8)])
        plan = Limit(Sort(Scan("t"), (("k", True),)), 5)
        assert [r["seq"] for r in optimize(plan, db).execute(db)] == [0, 1, 2, 3, 4]

    def test_projection_pushdown_preserves_collision_error(self):
        db = self._db()
        # patients ⋈ patients on patient_id collides on age/name/smoker.
        plan = Project(
            Join(Scan("patients"), Scan("patients"), (("patient_id", "patient_id"),)),
            ("patient_id",),
        )
        with pytest.raises(RelationalError):
            execute_interpreted(plan, db)
        with pytest.raises(RelationalError):
            optimize(plan, db).execute(db)

    def test_projection_pushdown_preserves_unknown_column_error(self):
        db = self._db()
        plan = Project(
            Join(Scan("patients"), Scan("visits"), (("patient_id", "patient_id"),)),
            ("no_such_column",),
        )
        with pytest.raises(RelationalError):
            execute_interpreted(plan, db)
        with pytest.raises(RelationalError):
            optimize(plan, db).execute(db)


def _in_list(column, values):
    return InList(Identifier.of(column), tuple(Literal(v) for v in values))


class TestInListAccessPaths:
    """Membership filters lower onto single-column indexes (the delta path)."""

    def _db(self):
        return _load(
            [
                {"patient_id": i, "age": 30 + i, "name": _NAMES[i % 5], "smoker": i % 2 == 0}
                for i in range(10)
            ],
            [],
        )

    @given(_patient_rows, st.lists(st.sampled_from(_NAMES), max_size=3))
    @settings(max_examples=60)
    def test_in_list_lowering_is_equivalent(self, patients, names):
        db = _load(patients, [])
        plan = Select(Scan("patients"), _in_list("name", names))
        _assert_all_paths_agree(plan, db)

    def test_in_list_lowers_to_in_lookup(self):
        plan = Select(Scan("patients"), _in_list("name", ["ann", "bob"]))
        assert isinstance(optimize(plan, self._db()), InLookup)

    def test_in_list_with_null_item_still_lowers(self):
        # NULL items never match in filter context, so the probe drops them.
        db = self._db()
        plan = Select(Scan("patients"), _in_list("name", ["ann", None]))
        assert isinstance(optimize(plan, db), InLookup)
        _assert_all_paths_agree(plan, db)

    def test_negated_in_list_not_lowered(self):
        probe = InList(
            Identifier.of("name"), (Literal("ann"),), negated=True
        )
        plan = Select(Scan("patients"), probe)
        assert not isinstance(optimize(plan, self._db()), InLookup)

    def test_most_selective_access_path_wins(self):
        # name='ann' matches 2 of 10 rows; the id probe matches 1.  Bucket
        # sizes are known at plan time, so the lookup choice is measured,
        # not guessed: the id probe must win and the name filter remain.
        db = self._db()
        predicate = BinaryOp(
            "AND",
            BinaryOp("=", Identifier.of("name"), Literal("ann")),
            _in_list("patient_id", [5]),
        )
        optimized = optimize(Select(Scan("patients"), predicate), db)
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, InLookup)
        assert optimized.child.column == "patient_id"

    def test_select_over_lowered_lookup_is_relowered_jointly(self):
        # A membership select pushed down after its child already lowered
        # (the rewrite is bottom-up) must still reach the cost-based
        # choice: lookup nodes are reconstituted and re-lowered jointly.
        db = self._db()
        lowered = IndexLookup("patients", (("name", "ann"),))
        plan = Select(lowered, _in_list("patient_id", [5]))
        optimized = optimize(plan, db)
        assert isinstance(optimized, Select)
        assert isinstance(optimized.child, InLookup)
        assert optimized.child.column == "patient_id"
        reference = execute_interpreted(plan, db)
        assert optimized.execute(db) == reference

    def test_prepare_stream_plan_builds_index_above_existing_lookup(self):
        # With only the name index present, the first optimize leaves the
        # membership select above an IndexLookup; preparing for streaming
        # must still build the single-column index and re-plan onto it.
        db = self._db()
        table = db.table("patients")
        assert table.matching_index(["age"]) is None
        predicate = BinaryOp(
            "AND",
            BinaryOp("=", Identifier.of("name"), Literal("ann")),
            _in_list("age", [35]),
        )
        plan = Select(Scan("patients"), predicate)
        prepared = prepare_stream_plan(plan, db)
        assert table.matching_index(["age"]) is not None
        assert isinstance(prepared, Select)
        assert isinstance(prepared.child, InLookup)
        assert prepared.child.column == "age"
        assert prepared.execute(db) == execute_interpreted(plan, db)


class TestSelectPushdownBelowPivot:
    """Key-only filters slide below Pivot/Coerce (the EAV delta path)."""

    def _eav_db(self):
        db = Database("d")
        db.create_table(
            TableSchema.build(
                "eav",
                [
                    ("record_id", DataType.INTEGER),
                    ("attribute", DataType.TEXT),
                    ("value", DataType.TEXT),
                ],
            )
        )
        db.insert(
            "eav",
            [
                {"record_id": rid, "attribute": attr, "value": f"{attr}{rid}"}
                for rid in range(1, 6)
                for attr in ("a", "b")
            ],
        )
        return db

    def _pivot(self):
        return Pivot(Scan("eav"), ("record_id",), "attribute", "value", ("a", "b"))

    def test_key_filter_pushes_below_pivot(self):
        optimized = optimize(
            Select(self._pivot(), _in_list("record_id", [2, 4])), self._eav_db()
        )
        assert isinstance(optimized, Pivot)

    def test_value_filter_stays_above_pivot(self):
        optimized = optimize(
            Select(self._pivot(), BinaryOp("=", Identifier.of("a"), Literal("a2"))),
            self._eav_db(),
        )
        assert isinstance(optimized, Select)

    def test_pushed_plan_is_equivalent(self):
        db = self._eav_db()
        plan = Select(self._pivot(), _in_list("record_id", [2, 4]))
        _assert_all_paths_agree(plan, db)


# -- Select pushdown below Compute, Sort, Aggregate and joins -------------------

#: Filters of every kind: ones that cannot raise (equality, membership,
#: same-band ordering), ones that raise on some rows (text against a
#: number, arithmetic on text), and ones over derived or aggregate names.
_PUSHED_PREDICATES = [
    "patient_id IN (1, 2, 3, 5, 8)",
    "patient_id = 4",
    "patient_id IS NULL OR patient_id > 20",
    "age >= 30",
    "name < 'c' AND NOT smoker",
    "IIF(smoker = TRUE, age, 0) = 0",
    "names >= 1 AND patient_id IN (1, 2)",
    "name > 5",
    "score * 2 >= 10",
    "name LIKE 'a%'",
    "double > 40",
    "n >= 2",
    "label = 'A'",
    "visit_id IN (1, 2) AND patient_id IN (1, 2)",
]

#: Derivations that cannot raise, and one that raises on every named row.
_DERIVATIONS = [
    ("double", "age * 2"),
    ("label", "IIF(name = 'ann', 'A', 'B')"),
    ("flag", "IIF(smoker = TRUE, 1, 0)"),
    ("shout", "name + 1"),
    ("seen", "IIF(score IS NULL, 0, 1)"),
    ("bump", "score * 2"),
]

_AGGREGATES = [
    AggregateSpec("COUNT", None, "n"),
    AggregateSpec("COUNT_DISTINCT", "name", "names"),
    AggregateSpec("SUM", "age", "total"),
    AggregateSpec("MIN", "name", "first"),
    AggregateSpec("SUM", "name", "garbled"),
]


_COLUMNS = {
    "patients": {"patient_id", "age", "name", "smoker"},
    "visits": {"visit_id", "patient_id", "score"},
}


@st.composite
def _pushdown_plans(draw):
    """Select over Compute, Sort, Aggregate or an equi-join, reading only
    columns that exist there (an unknown name raises on its own, at a
    point each executor reaches in its own order)."""
    patients, visits = Scan("patients"), Scan("visits")
    both = _COLUMNS["patients"] | _COLUMNS["visits"]
    on = (("patient_id", "patient_id"),)
    base, columns = draw(
        st.sampled_from(
            [
                (patients, _COLUMNS["patients"]),
                (visits, _COLUMNS["visits"]),
                (Join(patients, visits, on, "inner"), both),
                (Join(patients, visits, on, "left"), both),
                (Join(visits, patients, on, "left"), both),
            ]
        )
    )

    def usable(pool, text=lambda item: item):
        return [
            item for item in pool if referenced_identifiers(parse(text(item))) <= columns
        ]

    def some(pool):
        return draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
        )

    shape = draw(st.sampled_from(["compute", "sort", "aggregate", "none"]))
    if shape == "compute":
        chosen = some(usable(_DERIVATIONS, lambda derivation: derivation[1]))
        base = Query(base).compute(**dict(chosen)).plan
        columns = columns | {name for name, _ in chosen}
    elif shape == "sort":
        base = Sort(base, (("patient_id", draw(st.booleans())),))
    elif shape == "aggregate":
        groupings = (("patient_id",), ("patient_id", "name"), ("name",))
        keys = draw(st.sampled_from([k for k in groupings if set(k) <= columns]))
        specs = some([a for a in _AGGREGATES if a.column in columns | {None}])
        base = Aggregate(base, keys, tuple(specs))
        columns = set(keys) | {spec.alias for spec in specs}
    for condition in draw(
        st.lists(st.sampled_from(usable(_PUSHED_PREDICATES)), min_size=1, max_size=2)
    ):
        base = Select(base, parse(condition))
    return base


def _outcome(run):
    try:
        return ("rows", run())
    except Exception as error:  # noqa: BLE001 - error types are compared
        return ("error", type(error).__name__)


class TestSelectPushdownEquivalence:
    """Every pushdown keeps the interpreter's rows and its errors."""

    @given(_patient_rows, _visit_rows, _pushdown_plans())
    @settings(max_examples=300, deadline=None)
    def test_pushed_filters_match_the_interpreter(self, patients, visits, plan):
        db = _load(patients, visits)
        reference = _outcome(lambda: execute_interpreted(plan, db))
        assert _outcome(lambda: plan.execute(db)) == reference
        assert _outcome(lambda: optimize(plan, db).execute(db)) == reference

    def test_record_filters_reach_both_sides_of_a_left_join(self):
        db = _load(
            [
                {"patient_id": i, "age": i, "name": "ann", "smoker": False}
                for i in range(6)
            ],
            [{"visit_id": i, "patient_id": i % 6, "score": i} for i in range(12)],
        )
        plan = Select(
            Aggregate(
                Join(
                    Scan("patients"), Scan("visits"), (("patient_id", "patient_id"),), "left"
                ),
                ("patient_id",),
                (AggregateSpec("COUNT", None, "n"),),
            ),
            parse("patient_id IN (1, 2)"),
        )
        optimized = optimize(plan, db, vectorize=False)
        assert isinstance(optimized, Aggregate)
        join = optimized.child
        assert isinstance(join, Join)
        # Both sides filter on the ids, so rebinding finds two slots.
        assert rebind_in_lists(optimized, "patient_id", (3,))[1] == 2
        assert optimized.execute(db) == execute_interpreted(plan, db)

    def test_a_raising_derivation_keeps_the_filter_above_it(self):
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": True}], [])
        plan = Select(
            Query(Scan("patients")).compute(shout="name + 1").plan,
            parse("patient_id = 2"),
        )
        assert isinstance(optimize(plan, db), Select)
        with pytest.raises(ReproError):
            optimize(plan, db).execute(db)

    def test_without_a_database_selects_merge_as_written(self):
        # The one relaxation: with no column set known, ``age >= 30 AND
        # name > 5`` also evaluates ``name > 5`` where ``age`` is NULL.
        db = _load([{"patient_id": 1, "age": None, "name": "ann", "smoker": True}], [])
        plan = Select(Select(Scan("patients"), parse("age >= 30")), parse("name > 5"))
        assert execute_interpreted(plan, db) == []
        assert optimize(plan, db).execute(db) == []
        merged = optimize(plan)
        assert isinstance(merged, Select) and isinstance(merged.child, Scan)
        with pytest.raises(ReproError):
            merged.execute(db)

    def test_a_raising_aggregate_keeps_the_filter_above_it(self):
        # SUM over text raises on any group that has a name; filtering the
        # groups away first would hide that.
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": True}], [])
        plan = Select(
            Aggregate(
                Scan("patients"), ("patient_id",), (AggregateSpec("SUM", "name", "s"),)
            ),
            parse("patient_id = 2"),
        )
        optimized = optimize(plan, db)
        assert isinstance(optimized, Select)
        assert _outcome(lambda: optimized.execute(db)) == _outcome(
            lambda: execute_interpreted(plan, db)
        )

    def test_a_residual_that_can_raise_keeps_the_scan(self):
        # ``age > 'x'`` raises on every row with an age, including the
        # rows an index probe on ``name`` would skip.
        db = _load([{"patient_id": 1, "age": 3, "name": "bob", "smoker": True}], [])
        plan = Select(Scan("patients"), parse("age > 'x' AND name = 'ann'"))
        optimized = optimize(plan, db)
        assert isinstance(optimized, Select) and isinstance(optimized.child, Scan)
        with pytest.raises(ReproError):
            execute_interpreted(plan, db)
        with pytest.raises(ReproError):
            optimized.execute(db)
