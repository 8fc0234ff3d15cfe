"""Optimized ≡ naive-streaming ≡ interpreted execution, row for row.

The tentpole guarantee of the streaming/compiled/index-aware executor:
``Query.execute(db, optimized=True)`` must agree with ``optimized=False``
and with the reference interpreter (`execute_interpreted`, the seed
semantics preserved as an executable spec) on every database — including
plans the optimizer rewrites into InLookup probes and pushed-down filters,
NULL-heavy columns and mixed bool/int keys, and EAV pivots and
coercions.  When the interpreter raises, streaming must raise an error
of the same type.
"""

from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, QueryError, RelationalError, ReproError
from repro.errors import TypeMismatchError
from repro.expr.ast import BinaryOp, Identifier, InList, IsNull, Literal, UnaryOp
from repro.expr.analysis import referenced_identifiers
from repro.expr.parser import parse
from repro.obs.explain import explain_analyze
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    Database,
    DataType,
    InLookup,
    Join,
    Pivot,
    Project,
    Query,
    Rename,
    Scan,
    Select,
    Sort,
    TableSchema,
    Union,
    Values,
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


_patient_edits = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.sampled_from(_NAMES), st.sampled_from(_NAMES)),
        st.tuples(st.just("delete"), st.sampled_from(_NAMES), st.integers(0, 99)),
        st.tuples(st.just("insert"), st.sampled_from(_NAMES), st.integers(0, 40)),
    ),
    max_size=6,
)


def _apply_edits(db: Database, edits) -> None:
    """Renames, deletes (by name and minimum age) and inserts, in order."""
    table = db.table("patients")
    for op, name, arg in edits:
        if op == "update":
            table.update(lambda row, name=name: row["name"] == name, {"name": arg})
        elif op == "delete":
            table.delete(
                lambda row, name=name, age=arg: row["name"] == name
                and row["age"] is not None
                and row["age"] >= age
            )
        else:
            db.insert(
                "patients",
                [{"patient_id": arg, "age": None, "name": name, "smoker": False}],
            )


def _load(patients, visits) -> Database:
    """Two indexed tables so equality filters can lower onto InLookup."""
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
    @given(_patient_rows, _patient_edits)
    @settings(max_examples=60)
    def test_indexed_equality_filter(self, patients, edits):
        # A one-value probe returns its bucket as it stands, so every
        # bucket must stay in extent order through updates, deletes and
        # inserts.
        db = _load(patients, [])
        _apply_edits(db, edits)
        for name in _NAMES:
            plan = Select(
                Scan("patients"),
                BinaryOp("=", Identifier.of("name"), Literal(name)),
            )
            assert optimize(plan, db) == InLookup("patients", "name", (name,))
            _assert_all_paths_agree(plan, db)

    @given(
        _patient_rows,
        st.sampled_from(_NAMES),
        st.one_of(st.none(), st.integers(0, 40)),
        st.integers(0, 99),
    )
    @settings(max_examples=60)
    def test_indexed_equality_with_residual(self, patients, name, patient_id, cutoff):
        # With a second indexed equality, the smaller bucket is probed (a
        # tie goes to the first conjunct) and the others stay as written.
        db = _load(patients, [])
        table = db.table("patients")
        probes = {"name": (f"'{name}'", name)}
        if patient_id is not None:
            probes["patient_id"] = (str(patient_id), patient_id)
        sizes = {
            column: table.matching_index([column]).count((value,))
            for column, (_, value) in probes.items()
        }
        chosen = min(sizes, key=sizes.__getitem__)
        conjuncts = {column: f"{column} = {text}" for column, (text, _) in probes.items()}
        conjuncts["age"] = f"age >= {cutoff}"
        plan = Select(Scan("patients"), parse(" AND ".join(conjuncts.values())))
        del conjuncts[chosen]
        (event,) = [
            event
            for event in explain_analyze(plan, db).optimize_span.events
            if event["event"] == "index_lowering"
        ]
        assert event["column"] == chosen
        assert event["candidate_rows"] == sizes[chosen]
        assert event["alternatives"] == [
            {"column": column, "candidate_rows": rows} for column, rows in sizes.items()
        ]
        assert optimize(plan, db) == Select(
            InLookup("patients", chosen, (probes[chosen][1],)),
            parse(" AND ".join(conjuncts.values())),
        )
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
        # Only single-column indexes serve a probe: over the composite
        # (patient_id, score) index the plan stays the filtered scan.
        assert optimize(plan, db) == plan
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

    @given(_patient_rows, st.sampled_from(_NAMES))
    @settings(max_examples=50)
    def test_union_with_select_pushdown(self, patients, name):
        db = _load(patients, [])
        plan = Select(
            Union((Scan("patients"), Scan("patients"))),
            BinaryOp("=", Identifier.of("name"), Literal(name)),
        )
        _assert_all_paths_agree(plan, db)

    @given(_patient_rows, _visit_rows, st.integers(0, 99))
    @settings(max_examples=40)
    def test_full_query_pipeline(self, patients, visits, cutoff):
        db = _load(patients, visits)
        joined = (
            Query.table("patients")
            .where(BinaryOp(">=", Identifier.of("age"), Literal(cutoff)))
            .join(Query.table("visits"), on=[("patient_id", "patient_id")])
        )
        computed = Compute(joined.plan, (("half_score", parse("score / 2")),))
        query = Query(
            Sort(
                Project(computed, ("patient_id", "visit_id", "half_score")),
                (("patient_id", True), ("visit_id", False)),
            )
        )
        reference = execute_interpreted(query.plan, db)
        assert query.execute(db, optimized=False) == reference
        assert query.execute(db, optimized=True) == reference

    @given(_patient_rows)
    @settings(max_examples=40)
    def test_aggregate_after_filter(self, patients):
        db = _load(patients, [])
        grouped = Aggregate(
            Query.table("patients").where("age IS NOT NULL").plan,
            ("name",),
            (
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("AVG", "age", "mean_age"),
            ),
        )
        query = Query(Sort(grouped, (("name", True),)))
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
        assert not isinstance(optimize(plan, _load_mixed([], [])), InLookup)
        assert isinstance(optimize(plan, self._db()), InLookup)

    def test_index_lowering_skips_unindexed_column(self):
        plan = Select(
            Scan("patients"), BinaryOp("=", Identifier.of("age"), Literal(33))
        )
        assert not isinstance(optimize(plan, self._db()), InLookup)

    def test_index_lowering_skips_null_literal(self):
        plan = Select(
            Scan("patients"), BinaryOp("=", Identifier.of("name"), Literal(None))
        )
        assert not isinstance(optimize(plan, self._db()), InLookup)

    def test_index_lookup_respects_sql_equality(self):
        # hash(True) == hash(1), so probing an INTEGER index with TRUE lands
        # in the 1-bucket — but SQL `=` distinguishes booleans from numbers,
        # so the probe must skip that bucket.
        db = Database("d")
        db.create_table(
            TableSchema.build("t", [("k", DataType.INTEGER), ("v", DataType.TEXT)])
        )
        db.insert("t", [{"k": 1, "v": "one"}, {"k": 2, "v": "two"}])
        index = db.table("t").create_index(("k",))
        assert index.lookup((True,))  # the raw bucket DOES contain k=1 rows
        plan = Select(Scan("t"), BinaryOp("=", Identifier.of("k"), Literal(True)))
        optimized = optimize(plan, db)
        assert isinstance(optimized, InLookup)
        assert optimized.execute(db) == execute_interpreted(plan, db) == []

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

    def test_prepare_stream_plan_builds_index_above_existing_lookup(self):
        # With only the name index present, the first optimize leaves the
        # membership select above a name probe; preparing for streaming
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
        base = Compute(base, tuple((name, parse(text)) for name, text in chosen))
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
        optimized = optimize(plan, db)
        assert isinstance(optimized, Aggregate)
        join = optimized.child
        assert isinstance(join, Join)
        # Both sides filter on the ids, so rebinding finds two slots.
        assert rebind_in_lists(optimized, "patient_id", (3,))[1] == 2
        assert optimized.execute(db) == execute_interpreted(plan, db)

    def test_a_raising_derivation_keeps_the_filter_above_it(self):
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": True}], [])
        plan = Select(
            Compute(Scan("patients"), (("shout", parse("name + 1")),)),
            parse("patient_id = 2"),
        )
        assert isinstance(optimize(plan, db), Select)
        with pytest.raises(ReproError):
            optimize(plan, db).execute(db)

    def test_merged_selects_keep_the_inner_guard(self):
        # ``name > 5`` raises on text, but only rows with ``age >= 30``
        # reach it; the optimized plan must not evaluate it where ``age``
        # is NULL.
        db = _load([{"patient_id": 1, "age": None, "name": "ann", "smoker": True}], [])
        plan = Select(Select(Scan("patients"), parse("age >= 30")), parse("name > 5"))
        assert execute_interpreted(plan, db) == []
        assert optimize(plan, db).execute(db) == []

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


# -- randomized plans over NULL-heavy, type-mixed data -------------------------

_MIXED_NAMES = ["ann", "bob", "cal", None]

# NULL-heavy and type-mixed on purpose: ``age`` mixes integers, booleans,
# and NULLs so grouping/join/distinct keys exercise the canonical-key rules.
_mixed_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.integers(0, 12),
            "age": st.one_of(st.integers(0, 5), st.none(), st.booleans()),
            "name": st.sampled_from(_MIXED_NAMES),
            "smoker": st.one_of(st.booleans(), st.none()),
        }
    ),
    max_size=30,
)

_mixed_visit_rows = st.lists(
    st.fixed_dictionaries(
        {
            "visit_id": st.integers(0, 40),
            "patient_id": st.one_of(st.integers(0, 12), st.none(), st.booleans()),
            "score": st.one_of(st.integers(-3, 9), st.none()),
        }
    ),
    max_size=30,
)


def _load_mixed(patients, visits) -> Database:
    """The two tables without indexes, over type-mixed rows."""
    db = Database("mixed")
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
    return db


def _assert_streaming_agrees(plan, db) -> None:
    """Interpreter (spec) and streaming agree: the rows, or the error type."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    assert _outcome(lambda: plan.execute(db)) == reference


# -- random plan generation ----------------------------------------------------

_PATIENT_COLS = ("patient_id", "age", "name", "smoker")
_VISIT_COLS = ("visit_id", "patient_id", "score")

_literals = st.one_of(
    st.integers(-2, 6),
    st.sampled_from(["ann", "bob", "a%", ""]),
    st.booleans(),
    st.none(),
    st.floats(0, 3),
)


@st.composite
def _random_predicates(draw, columns):
    """A predicate over ``columns`` (may legitimately raise 3VL type errors)."""
    column = Identifier.of(draw(st.sampled_from(columns)))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return BinaryOp(op, column, Literal(draw(_literals)))
    if kind == 1:
        return IsNull(column, negated=draw(st.booleans()))
    if kind == 2:
        items = tuple(Literal(draw(_literals)) for _ in range(draw(st.integers(1, 3))))
        return InList(column, items, negated=draw(st.booleans()))
    if kind == 3:
        return BinaryOp("LIKE", column, Literal(draw(st.sampled_from(["a%", "%b%", "c__"]))))
    left = draw(_random_predicates(columns))
    right = draw(_random_predicates(columns))
    if kind == 4:
        return BinaryOp(draw(st.sampled_from(["AND", "OR"])), left, right)
    return UnaryOp("NOT", left)


@st.composite
def _random_plans(draw, depth=2):
    """(plan, output columns), tracking columns so wrappers stay valid."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        table = draw(st.sampled_from(["patients", "visits"]))
        return Scan(table), _PATIENT_COLS if table == "patients" else _VISIT_COLS
    child, columns = draw(_random_plans(depth=depth - 1))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Select(child, draw(_random_predicates(columns))), columns
    if kind == 1:
        keep = draw(st.sets(st.sampled_from(columns), min_size=1))
        kept = tuple(c for c in columns if c in keep)
        return Project(child, kept), kept
    if kind == 2:
        column = draw(st.sampled_from(columns))
        derived = BinaryOp(
            draw(st.sampled_from(["+", "-", "*", "/", "%"])),
            Identifier.of(column),
            Literal(draw(st.one_of(st.integers(-2, 4), st.none()))),
        )
        return Compute(child, (("derived", derived),)), columns + ("derived",)
    if kind == 3:
        keys = tuple(
            (c, draw(st.booleans()))
            for c in draw(st.sets(st.sampled_from(columns), min_size=1))
        )
        return Sort(child, keys), columns
    if kind == 4:
        group = tuple(draw(st.sets(st.sampled_from(columns), max_size=2)))
        value_column = draw(st.sampled_from(columns))
        func = draw(st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG", "COUNT_DISTINCT"]))
        specs = (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec(func, value_column, "agg"),
        )
        return Aggregate(child, group, specs), group + ("n", "agg")
    return Union((child, child)), columns


class TestRandomizedPlans:
    @given(_mixed_patient_rows, _mixed_visit_rows, _random_plans())
    @settings(max_examples=120, deadline=None)
    def test_streaming_matches_interpreter(self, patients, visits, drawn):
        plan, _ = drawn
        db = _load_mixed(patients, visits)
        _assert_streaming_agrees(plan, db)

    @given(_mixed_patient_rows, _mixed_visit_rows, _random_predicates(_PATIENT_COLS))
    @settings(max_examples=120, deadline=None)
    def test_random_predicates_over_join(self, patients, visits, predicate):
        db = _load_mixed(patients, visits)
        plan = Select(
            Join(
                Scan("patients"),
                Rename(Scan("visits"), (("visit_id", "vid"),)),
                (("patient_id", "patient_id"),),
                how="left",
            ),
            predicate,
        )
        _assert_streaming_agrees(plan, db)

    @given(_mixed_patient_rows)
    @settings(max_examples=80, deadline=None)
    def test_optimized_plan_matches_interpreter(self, patients):
        db = _load_mixed(patients, [])
        plan = Project(
            Select(Scan("patients"), parse("age >= 2 OR smoker = TRUE")),
            ("patient_id", "age"),
        )
        reference = execute_interpreted(plan, db)
        assert optimize(plan, db).execute(db) == reference

    @given(_mixed_patient_rows)
    @settings(max_examples=60, deadline=None)
    def test_unpivot_then_pivot_agrees(self, patients):
        unique = list({row["patient_id"]: row for row in patients}.values())
        db = _load_mixed(unique, [])
        # The un-pivot spelled as a union of one projection per attribute.
        unpivoted = Union(
            tuple(
                Project(
                    Compute(
                        Scan("patients"),
                        (("attribute", Literal(column)), ("value", Identifier.of(column))),
                    ),
                    ("patient_id", "attribute", "value"),
                )
                for column in ("age", "name")
            )
        )
        pivoted = Pivot(
            unpivoted,
            key_columns=("patient_id",),
            attribute_column="attribute",
            value_column="value",
            attributes=("age", "name"),
        )
        plan = Sort(Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),))
        _assert_streaming_agrees(plan, db)

    @given(_mixed_visit_rows, st.integers(-3, 9))
    @settings(max_examples=60, deadline=None)
    def test_index_probe_over_mixed_keys(self, visits, score):
        db = _load_mixed([], visits)
        db.table("visits").create_index(("score",))
        plan = Select(Scan("visits"), parse(f"score = {score}"))
        optimized = optimize(plan, db)
        assert isinstance(optimized, InLookup)
        assert optimized.execute(db) == execute_interpreted(plan, db)


class TestShortCircuitParity:
    def test_and_suppresses_right_errors_like_row_path(self):
        # ``name < age`` raises (str vs int ordering) — but only for rows
        # that survive the left conjunct.  With no survivors, no executor
        # may raise.
        db = _load_mixed([{"patient_id": 1, "age": 3, "name": "ann", "smoker": False}], [])
        plan = Select(Scan("patients"), parse("smoker = TRUE AND name < age"))
        assert execute_interpreted(plan, db) == []
        assert plan.execute(db) == []

    def test_or_suppresses_right_errors_like_row_path(self):
        db = _load_mixed([{"patient_id": 1, "age": 3, "name": "ann", "smoker": True}], [])
        plan = Select(Scan("patients"), parse("smoker = TRUE OR name < age"))
        rows = execute_interpreted(plan, db)
        assert len(rows) == 1
        assert plan.execute(db) == rows

    def test_undecided_rows_still_raise(self):
        db = _load_mixed(
            [
                {"patient_id": 1, "age": 3, "name": "ann", "smoker": False},
                {"patient_id": 2, "age": 4, "name": "bob", "smoker": True},
            ],
            [],
        )
        plan = Select(Scan("patients"), parse("smoker = TRUE AND name < age"))
        with pytest.raises(EvaluationError):
            execute_interpreted(plan, db)
        with pytest.raises(EvaluationError):
            plan.execute(db)

    def test_short_circuit_over_mixed_rows(self):
        # Half the rows decide on the left, half need the right operand.
        patients = [
            {"patient_id": i, "age": i % 5, "name": "ann" if i % 2 else "bob", "smoker": i % 2 == 0}
            for i in range(20)
        ]
        db = _load_mixed(patients, [])
        plan = Select(Scan("patients"), parse("smoker = FALSE AND age >= 2"))
        _assert_streaming_agrees(plan, db)


class TestErrorParity:
    def test_unknown_projection_column(self):
        db = _load_mixed([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        plan = Project(Scan("patients"), ("patient_id", "nope"))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(QueryError, match="unknown column"):
                executor()

    def test_join_collision(self):
        db = _load_mixed([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        plan = Join(Scan("patients"), Scan("patients"), (("patient_id", "patient_id"),))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(QueryError, match="collide"):
                executor()

    def test_union_column_mismatch(self):
        db = _load_mixed([], [])
        plan = Union((Scan("patients"), Scan("visits")))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(QueryError, match="disagree"):
                executor()


# -- Pivot and Coerce -----------------------------------------------------------

_EAV_COLS = ("k", "k2", "attribute", "value")

_eav_rows = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 4), st.none(), st.booleans(), st.just(1.0)),
        st.sampled_from(["a", "b", None]),
        # Unknown, non-str and NULL attributes never match a declared name.
        st.one_of(
            st.sampled_from(["age", "name", "smoker", "other"]),
            st.integers(0, 2),
            st.none(),
            st.booleans(),
        ),
        st.one_of(
            st.sampled_from(["1", " 2 ", "true", "N", "2020-01-02", "x"]),
            st.integers(-1, 3),
            st.none(),
        ),
    ),
    max_size=40,
)

_pivot_keys = st.sampled_from([("k",), ("k2",), ("k", "k2"), ("k2", "k"), ()])
_pivot_attributes = st.lists(
    st.sampled_from(["age", "name", "smoker", "missing", "k"]), max_size=4
).map(tuple)

_TYPES = list(DataType)

#: Inputs for every coercion: text with whitespace and case, numbers,
#: booleans, dates, NULL, and literals that cannot coerce.
_coercible = st.one_of(
    st.sampled_from(
        [" true ", "TRUE", "Yes", "n", "0", "1", " 7 ", "-3", "1.5", "2020-01-02",
         " 2021-12-31 ", "maybe", ""]
    ),
    st.integers(-2, 2),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.booleans(),
    st.none(),
    st.sampled_from([date(2020, 1, 2), datetime(2020, 1, 2, 3, 4)]),
)


def _typed(rows):
    return [{column: (type(v), v) for column, v in row.items()} for row in rows]


def _assert_typed_agree(plan, db) -> None:
    """``_assert_streaming_agrees`` plus value *types*: ``1 == True == 1.0``
    would let a coercion that returns the wrong type pass."""
    _assert_streaming_agrees(plan, db)
    reference = _outcome(lambda: execute_interpreted(plan, db))
    if reference[0] == "rows":
        assert _typed(plan.execute(db)) == _typed(reference[1])


class TestPivotCoerce:
    """Pivot and Coerce, streaming against the interpreter."""

    @given(_eav_rows, _pivot_keys, _pivot_attributes)
    @settings(max_examples=150, deadline=None)
    def test_random_pivots_agree(self, rows, keys, attributes):
        db = _load_mixed([], [])
        plan = Pivot(Values(_EAV_COLS, tuple(rows)), keys, "attribute", "value", attributes)
        _assert_typed_agree(plan, db)

    @given(_eav_rows, st.sampled_from(_TYPES), st.sampled_from(_TYPES))
    @settings(max_examples=150, deadline=None)
    def test_random_coerced_pivots_agree(self, rows, first, second):
        db = _load_mixed([], [])
        pivoted = Pivot(
            Values(_EAV_COLS, tuple(rows)), ("k",), "attribute", "value", ("age", "name")
        )
        plan = Coerce(pivoted, (("age", first), ("name", second), ("absent", first)))
        _assert_typed_agree(plan, db)

    @given(
        st.lists(st.tuples(_coercible, _coercible), max_size=30),
        st.sampled_from(_TYPES),
        st.sampled_from(_TYPES),
    )
    @settings(max_examples=200, deadline=None)
    def test_coercion_to_every_type_agrees(self, rows, first, second):
        db = _load_mixed([], [])
        # A column coerced twice applies both conversions in order.
        plan = Coerce(Values(("a", "b"), tuple(rows)), (("a", first), ("b", second), ("a", second)))
        _assert_typed_agree(plan, db)

    def test_zero_rows(self):
        db = _load_mixed([], [])
        pivoted = Pivot(Values(_EAV_COLS, ()), ("k",), "attribute", "value", ("age",))
        for plan in (pivoted, Coerce(pivoted, (("age", DataType.INTEGER),))):
            assert plan.execute(db) == []
            _assert_typed_agree(plan, db)

    def test_bad_literal_raises_the_same_message(self):
        db = _load_mixed([], [])
        rows = tuple((value,) for value in ("1", " 2", "two", "3"))
        plan = Coerce(Values(("n",), rows), (("n", DataType.INTEGER),))
        messages = []
        for run in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            with pytest.raises(TypeMismatchError) as raised:
                run()
            messages.append(str(raised.value))
        assert len(set(messages)) == 1
        assert "'two'" in messages[0]

    def test_text_coercion_keeps_one_true_and_text_one_apart(self):
        db = _load_mixed([], [])
        rows = ((1,), (True,), ("1",), (1.0,), ("true",), (False,), (0,))
        plan = Coerce(Values(("v",), rows), (("v", DataType.TEXT),))
        expected = ["1", "true", "1", "1.0", "true", "false", "0"]
        for run in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
        ):
            assert [row["v"] for row in run()] == expected

    def test_booleans_ignore_whitespace_and_case(self):
        db = _load_mixed([], [])
        rows = tuple((text,) for text in (" TRUE", "yes ", "Y", "f", " No ", "0", "1"))
        plan = Coerce(Values(("b",), rows), (("b", DataType.BOOLEAN),))
        expected = [True, True, True, False, False, False, True]
        assert [row["b"] for row in plan.execute(db)] == expected
        _assert_typed_agree(plan, db)

    def test_coded_eav_table(self):
        """A CORI-shaped extract: a coded EAV table with repeated (key,
        attribute) pairs and near-unique dates (enough distinct values to
        drop the coercion memo)."""
        db = Database("eav")
        db.create_table(
            TableSchema.build(
                "eav",
                [
                    ("entity", DataType.TEXT),
                    ("k", DataType.INTEGER),
                    ("attribute", DataType.TEXT),
                    ("value", DataType.TEXT),
                ],
            )
        )
        rows = []
        for i in range(4000):
            rows.append(
                {
                    "entity": "procedure" if i % 7 else "finding",
                    "k": i % 1500 if i % 97 else None,
                    "attribute": ["when", "smoker", "age", "note"][i % 4],
                    "value": (
                        str(date(2000, 1, 1) + timedelta(days=i)),
                        "true" if i % 3 else " N ",
                        str(i % 90),
                        None,
                    )[i % 4],
                }
            )
        db.insert("eav", rows)
        pivoted = Pivot(
            Select(Scan("eav"), parse("entity = 'procedure'")),
            ("k",),
            "attribute",
            "value",
            ("when", "smoker", "age", "unknown"),
        )
        plan = Coerce(
            pivoted,
            (("when", DataType.DATE), ("smoker", DataType.BOOLEAN), ("age", DataType.INTEGER)),
        )
        _assert_typed_agree(plan, db)
        assert optimize(plan, db).execute(db) == execute_interpreted(plan, db)
