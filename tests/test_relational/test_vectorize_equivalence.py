"""Batch executor ≡ streaming ≡ interpreted, on randomized plans.

The vectorized executor is the third implementation of plan semantics, so
it inherits the same tentpole guarantee the streaming executor carries:
bit-identical rows (values *and* order) against the reference interpreter
on every database — including NULL-heavy columns, mixed bool/int keys,
and plans whose subtrees fall back to row-wise execution inside a batch
pipeline.  When the interpreter raises, the other executors must raise an
error of the same type; the *originating row* may differ (column-major vs
row-major evaluation order), which is one documented divergence.  The
other is the lazy ``Limit`` (DESIGN.md §7): a non-negative ``Limit`` stops
pulling rows after ``count``, so the row-pulling executors may return
rows where the materializing interpreter raises on a row past the limit.
"""

from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, QueryError, ReproError, TypeMismatchError
from repro.expr.ast import BinaryOp, Identifier, InList, IsNull, Literal, UnaryOp
from repro.expr.parser import parse
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Compute,
    Database,
    DataType,
    Distinct,
    Join,
    Limit,
    Pivot,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    TableSchema,
    TopK,
    Union,
    Unpivot,
    Values,
    Vectorized,
    execute_interpreted,
    optimize,
)
from repro.relational.algebra import Coerce
from repro.relational.query import _with_children
from repro.relational.vectorize import _KERNELS

_NAMES = ["ann", "bob", "cal", None]

# NULL-heavy and type-mixed on purpose: ``age`` mixes integers, booleans,
# and NULLs so grouping/join/distinct keys exercise the canonical-key rules.
_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.integers(0, 12),
            "age": st.one_of(st.integers(0, 5), st.none(), st.booleans()),
            "name": st.sampled_from(_NAMES),
            "smoker": st.one_of(st.booleans(), st.none()),
        }
    ),
    max_size=30,
)

_visit_rows = st.lists(
    st.fixed_dictionaries(
        {
            "visit_id": st.integers(0, 40),
            "patient_id": st.one_of(st.integers(0, 12), st.none(), st.booleans()),
            "score": st.one_of(st.integers(-3, 9), st.none()),
        }
    ),
    max_size=30,
)


def _load(patients, visits) -> Database:
    db = Database("vec")
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


def _outcome(fn):
    """(\"ok\", rows) or (\"err\", exception type) — types compare, rows match.

    ``TypeError`` is engine behaviour too: SUM/AVG over non-numeric values
    raise it from the shared ``_aggregate_values`` on every executor.
    """
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _without_limits(plan):
    """``plan`` with every non-negative ``Limit`` replaced by its child."""
    if isinstance(plan, Limit) and plan.count >= 0:
        return _without_limits(plan.child)
    return _with_children(plan, tuple(map(_without_limits, plan.children())))


def _lazy_limit_relaxation(plan, db, reference) -> bool:
    """True exactly when the lazy-``Limit`` relaxation may apply: the plan
    has a non-negative ``Limit``, and the same plan with every such
    ``Limit`` removed raises the interpreter's error type."""
    if reference[0] != "err" or not any(
        isinstance(node, Limit) and node.count >= 0 for node in plan.walk()
    ):
        return False
    return _outcome(lambda: execute_interpreted(_without_limits(plan), db)) == reference


def _assert_batch_agrees(plan, db) -> None:
    """Interpreter (spec), streaming, and forced-batch execution agree."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    streaming = _outcome(lambda: plan.execute(db))
    batch = _outcome(lambda: Vectorized(plan).execute(db))
    if streaming != reference and _lazy_limit_relaxation(plan, db, reference):
        # The raising row lies past a Limit the lazy executors stopped
        # pulling at; each may return the prefix it read (or still raise).
        assert streaming[0] == "ok"
        if batch[0] == "ok":
            assert batch == streaming
        return
    assert streaming == reference
    if reference[0] == "err":
        # Error parity is by type only: the batch path may trip on a
        # different row of the same doomed column.
        assert batch[0] == "err"
        assert issubclass(batch[1], (ReproError, TypeError))
    else:
        assert batch == reference


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
def _predicates(draw, columns):
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
    left = draw(_predicates(columns))
    right = draw(_predicates(columns))
    if kind == 4:
        return BinaryOp(draw(st.sampled_from(["AND", "OR"])), left, right)
    return UnaryOp("NOT", left)


@st.composite
def _plans(draw, depth=2):
    """(plan, output columns), tracking columns so wrappers stay valid."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        table = draw(st.sampled_from(["patients", "visits"]))
        return Scan(table), _PATIENT_COLS if table == "patients" else _VISIT_COLS
    child, columns = draw(_plans(depth=depth - 1))
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return Select(child, draw(_predicates(columns))), columns
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
        return Distinct(child), columns
    if kind == 4:
        keys = tuple(
            (c, draw(st.booleans()))
            for c in draw(st.sets(st.sampled_from(columns), min_size=1))
        )
        if draw(st.booleans()):
            return Sort(child, keys), columns
        return TopK(child, keys, draw(st.integers(0, 8))), columns
    if kind == 5:
        return Limit(child, draw(st.integers(-4, 12))), columns
    if kind == 6:
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
    @given(_patient_rows, _visit_rows, _plans())
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_interpreter_and_streaming(self, patients, visits, drawn):
        plan, _ = drawn
        db = _load(patients, visits)
        _assert_batch_agrees(plan, db)

    @given(_patient_rows, _visit_rows, _predicates(_PATIENT_COLS))
    @settings(max_examples=120, deadline=None)
    def test_random_predicates_over_join(self, patients, visits, predicate):
        db = _load(patients, visits)
        plan = Select(
            Join(
                Scan("patients"),
                Rename(Scan("visits"), (("visit_id", "vid"),)),
                (("patient_id", "patient_id"),),
                how="left",
            ),
            predicate,
        )
        _assert_batch_agrees(plan, db)

    @given(_patient_rows)
    @settings(max_examples=80, deadline=None)
    def test_optimized_plan_with_vectorize_pass(self, patients):
        # End-to-end: whatever the planner picks (batch or row) must agree.
        db = _load(patients, [])
        plan = Project(
            Select(Scan("patients"), parse("age >= 2 OR smoker = TRUE")),
            ("patient_id", "age"),
        )
        reference = execute_interpreted(plan, db)
        assert optimize(plan, db).execute(db) == reference


class TestFallbackSubtrees:
    """Row-wise operators forced inside a batch pipeline."""

    @given(_patient_rows)
    @settings(max_examples=60, deadline=None)
    def test_unpivot_pivot_fallback_inside_batch(self, patients):
        unique = list({row["patient_id"]: row for row in patients}.values())
        db = _load(unique, [])
        unpivoted = Unpivot(
            Scan("patients"),
            id_columns=("patient_id",),
            value_columns=("age", "name"),
            attribute_column="attribute",
            value_column="value",
        )
        pivoted = Pivot(
            unpivoted,
            key_columns=("patient_id",),
            attribute_column="attribute",
            value_column="value",
            attributes=("age", "name"),
        )
        # Unpivot has no kernel: the batch executor packs its streamed rows
        # at the boundary, and Pivot's kernel folds those batches.
        assert Unpivot not in _KERNELS
        assert Pivot in _KERNELS
        plan = Sort(Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),))
        _assert_batch_agrees(plan, db)

    @given(_visit_rows, st.integers(-3, 9))
    @settings(max_examples=60, deadline=None)
    def test_index_probe_leaf_inside_batch(self, visits, score):
        db = _load([], visits)
        db.table("visits").create_index(("score",))
        plan = Select(Scan("visits"), parse(f"score = {score}"))
        optimized = optimize(plan, db)
        reference = execute_interpreted(plan, db)
        assert optimized.execute(db) == reference
        # And explicitly forced under a batch root:
        assert Vectorized(optimized).execute(db) == reference


class TestShortCircuitParity:
    def test_and_suppresses_right_errors_like_row_path(self):
        # ``name < age`` raises (str vs int ordering) — but only for rows
        # that survive the left conjunct.  With no survivors, no executor
        # may raise.
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": False}], [])
        plan = Select(Scan("patients"), parse("smoker = TRUE AND name < age"))
        assert execute_interpreted(plan, db) == []
        assert plan.execute(db) == []
        assert Vectorized(plan).execute(db) == []

    def test_or_suppresses_right_errors_like_row_path(self):
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": True}], [])
        plan = Select(Scan("patients"), parse("smoker = TRUE OR name < age"))
        rows = execute_interpreted(plan, db)
        assert len(rows) == 1
        assert plan.execute(db) == rows
        assert Vectorized(plan).execute(db) == rows

    def test_undecided_rows_still_raise(self):
        db = _load(
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
        with pytest.raises(EvaluationError):
            Vectorized(plan).execute(db)

    def test_sub_batch_short_circuit_mixed_rows(self):
        # Half the rows decide on the left, half need the right operand —
        # the lazy sub-batch gather must evaluate the right side only where
        # it is legal, exactly like the row path.
        patients = [
            {"patient_id": i, "age": i % 5, "name": "ann" if i % 2 else "bob", "smoker": i % 2 == 0}
            for i in range(20)
        ]
        db = _load(patients, [])
        plan = Select(Scan("patients"), parse("smoker = FALSE AND age >= 2"))
        _assert_batch_agrees(plan, db)


class TestErrorParity:
    def test_unknown_projection_column(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        plan = Project(Scan("patients"), ("patient_id", "nope"))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
            lambda: Vectorized(plan).execute(db),
        ):
            with pytest.raises(QueryError, match="unknown column"):
                executor()

    def test_join_collision(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        plan = Join(Scan("patients"), Scan("patients"), (("patient_id", "patient_id"),))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
            lambda: Vectorized(plan).execute(db),
        ):
            with pytest.raises(QueryError, match="collide"):
                executor()

    def test_union_column_mismatch(self):
        db = _load([], [])
        plan = Union((Scan("patients"), Scan("visits")))
        for executor in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
            lambda: Vectorized(plan).execute(db),
        ):
            with pytest.raises(QueryError, match="disagree"):
                executor()

    def test_a_top_k_of_no_rows_still_runs_its_child(self):
        # SUM over names raises; a TopK of count 0 must still reach it.
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        summed = Aggregate(
            Scan("patients"), (), (AggregateSpec("SUM", "name", "total"),)
        )
        for keys in ((("total", False),), (("total", False), ("total", True))):
            plan = TopK(summed, keys, 0)
            for executor in (
                lambda: execute_interpreted(plan, db),
                lambda: plan.execute(db),
                lambda: Vectorized(plan).execute(db),
            ):
                with pytest.raises(TypeError):
                    executor()

    def test_a_negative_top_k_returns_no_rows(self):
        rows = [
            {"patient_id": i, "age": i, "name": "ann", "smoker": True}
            for i in range(3)
        ]
        db = _load(rows, [])
        for keys in ((("age", False),), (("age", False), ("name", True))):
            plan = TopK(Scan("patients"), keys, -1)
            _assert_batch_agrees(plan, db)
            assert plan.execute(db) == []

    def test_interpreter_refuses_vectorized_node(self):
        db = _load([], [])
        with pytest.raises(QueryError, match="Vectorized"):
            execute_interpreted(Vectorized(Scan("patients")), db)


class TestZeroCopyScanContract:
    """Bare whole-table batch scans are zero-copy; everything else is fresh.

    The shared snapshot is what makes the ``scan`` benchmark case ~20×
    instead of ~1.2× — any defensive variant pays one dict per row.  The
    flip side, pinned here, is that the sharing stops at bare ``Scan``
    roots: results of every non-trivial plan are freshly built dicts, so
    caller-side mutation can never leak into later executions.
    """

    def test_bare_scan_shares_the_snapshot(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        rows = Vectorized(Scan("patients")).execute(db)
        # The row dicts are the snapshot's own (zero-copy); the outer list
        # may be rebuilt by the execute wrapper.
        assert rows[0] is db.table("patients").snapshot_rows()[0]

    def test_non_trivial_results_are_private(self):
        patients = [
            {"patient_id": i, "age": i % 7, "name": "ann", "smoker": False}
            for i in range(50)
        ]
        db = _load(patients, [])
        plan = Select(Scan("patients"), parse("age >= 0"))
        reference = execute_interpreted(plan, db)
        rows = Vectorized(plan).execute(db)
        rows[0]["age"] = 999
        rows.pop()
        assert Vectorized(plan).execute(db) == reference
        assert plan.execute(db) == reference
        assert db.table("patients").rows()[0]["age"] == 0

    def test_parents_of_a_bare_scan_copy_the_snapshot(self):
        """Pass-through and convert-in-place parents (a streaming Select,
        Coerce) never hand out or mutate the snapshot's own dicts."""
        from repro.relational.algebra import Coerce

        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        snapshot = db.table("patients").snapshot_rows()
        for plan in (
            Select(Vectorized(Scan("patients")), parse("age >= 0")),
            Coerce(Vectorized(Scan("patients")), (("age", DataType.TEXT),)),
        ):
            rows = plan.execute(db)
            assert rows[0] is not snapshot[0]
            rows[0]["name"] = "mutated"
        assert snapshot[0] == {"patient_id": 1, "age": 2, "name": "ann", "smoker": True}

    def test_table_mutation_refreshes_the_snapshot(self):
        db = _load([{"patient_id": 1, "age": 2, "name": "ann", "smoker": True}], [])
        first = Vectorized(Scan("patients")).execute(db)
        db.insert("patients", [{"patient_id": 2, "age": 3, "name": "bob", "smoker": False}])
        second = Vectorized(Scan("patients")).execute(db)
        assert second is not first
        assert len(second) == 2


class TestLazyLimit:
    """Pins the lazy-``Limit`` relaxation (DESIGN.md §7)."""

    def test_limit_zero_never_pulls_a_raising_row(self):
        # ``name < 3`` raises (str vs int ordering) on every named row.
        db = _load([{"patient_id": 1, "age": 3, "name": "ann", "smoker": False}], [])
        plan = Limit(Select(Scan("patients"), parse("name < 3")), 0)
        with pytest.raises(EvaluationError):
            execute_interpreted(plan, db)
        assert plan.execute(db) == []
        assert Vectorized(plan).execute(db) == []
        _assert_batch_agrees(plan, db)

    def test_limit_stops_streaming_before_a_raising_row(self):
        rows = [
            {"patient_id": 1, "age": 3, "name": "ann", "smoker": True},
            {"patient_id": 2, "age": 4, "name": "bob", "smoker": False},
        ]
        db = _load(rows, [])
        # Row 1 passes on ``smoker`` alone; row 2 reaches ``name < 3``.
        plan = Limit(Select(Scan("patients"), parse("smoker = TRUE OR name < 3")), 1)
        with pytest.raises(EvaluationError):
            execute_interpreted(plan, db)
        assert plan.execute(db) == [rows[0]]
        _assert_batch_agrees(plan, db)


class TestBatchBoundaries:
    def test_multi_batch_inputs_agree(self):
        # More rows than BATCH_SIZE so every kernel crosses batch seams.
        patients = [
            {"patient_id": i % 700, "age": i % 9, "name": f"n{i % 13}", "smoker": i % 3 == 0}
            for i in range(2500)
        ]
        visits = [
            {"visit_id": i, "patient_id": i % 700, "score": i % 17}
            for i in range(3000)
        ]
        db = _load(patients, visits)
        plan = Aggregate(
            Select(
                Join(
                    Scan("patients"),
                    Rename(Scan("visits"), (("visit_id", "vid"),)),
                    (("patient_id", "patient_id"),),
                ),
                parse("score >= 4"),
            ),
            ("name",),
            (AggregateSpec("COUNT", None, "n"), AggregateSpec("AVG", "score", "mean")),
        )
        _assert_batch_agrees(plan, db)

    def test_values_and_limit_cross_batches(self):
        db = _load([], [])
        rows = tuple((i, f"v{i}") for i in range(2100))
        plan = Limit(Values(("a", "b"), rows), 1500)
        _assert_batch_agrees(plan, db)


# -- Pivot and Coerce kernels --------------------------------------------------

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
    """``_assert_batch_agrees`` plus value *types*: ``1 == True == 1.0``
    would let a coercion that returns the wrong type pass."""
    _assert_batch_agrees(plan, db)
    reference = _outcome(lambda: execute_interpreted(plan, db))
    if reference[0] == "ok":
        expected = _typed(reference[1])
        assert _typed(plan.execute(db)) == expected
        assert _typed(Vectorized(plan).execute(db)) == expected


class TestPivotCoerceKernels:
    """Pivot and Coerce batch kernels against the interpreter."""

    @given(_eav_rows, _pivot_keys, _pivot_attributes)
    @settings(max_examples=150, deadline=None)
    def test_random_pivots_agree(self, rows, keys, attributes):
        db = _load([], [])
        plan = Pivot(Values(_EAV_COLS, tuple(rows)), keys, "attribute", "value", attributes)
        _assert_typed_agree(plan, db)

    @given(_eav_rows, st.sampled_from(_TYPES), st.sampled_from(_TYPES))
    @settings(max_examples=150, deadline=None)
    def test_random_coerced_pivots_agree(self, rows, first, second):
        db = _load([], [])
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
        db = _load([], [])
        # A column coerced twice applies both conversions in order.
        plan = Coerce(Values(("a", "b"), tuple(rows)), (("a", first), ("b", second), ("a", second)))
        _assert_typed_agree(plan, db)

    def test_zero_rows(self):
        db = _load([], [])
        pivoted = Pivot(Values(_EAV_COLS, ()), ("k",), "attribute", "value", ("age",))
        for plan in (pivoted, Coerce(pivoted, (("age", DataType.INTEGER),))):
            assert Vectorized(plan).execute(db) == []
            _assert_typed_agree(plan, db)

    def test_bad_literal_raises_the_same_message(self):
        db = _load([], [])
        rows = tuple((value,) for value in ("1", " 2", "two", "3"))
        plan = Coerce(Values(("n",), rows), (("n", DataType.INTEGER),))
        messages = []
        for run in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
            lambda: Vectorized(plan).execute(db),
        ):
            with pytest.raises(TypeMismatchError) as raised:
                run()
            messages.append(str(raised.value))
        assert len(set(messages)) == 1
        assert "'two'" in messages[0]

    def test_text_coercion_keeps_one_true_and_text_one_apart(self):
        db = _load([], [])
        rows = ((1,), (True,), ("1",), (1.0,), ("true",), (False,), (0,))
        plan = Coerce(Values(("v",), rows), (("v", DataType.TEXT),))
        expected = ["1", "true", "1", "1.0", "true", "false", "0"]
        for run in (
            lambda: execute_interpreted(plan, db),
            lambda: plan.execute(db),
            lambda: Vectorized(plan).execute(db),
        ):
            assert [row["v"] for row in run()] == expected

    def test_booleans_ignore_whitespace_and_case(self):
        db = _load([], [])
        rows = tuple((text,) for text in (" TRUE", "yes ", "Y", "f", " No ", "0", "1"))
        plan = Coerce(Values(("b",), rows), (("b", DataType.BOOLEAN),))
        expected = [True, True, True, False, False, False, True]
        assert [row["b"] for row in Vectorized(plan).execute(db)] == expected
        _assert_typed_agree(plan, db)

    def test_coded_eav_table_across_batches(self):
        """A CORI-shaped extract: a dictionary-coded EAV table over several
        batches, with repeated (key, attribute) pairs and near-unique dates
        (enough distinct values to drop the coercion memo)."""
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
        optimized = optimize(plan, db)
        assert isinstance(optimized, Vectorized)
        assert optimized.execute(db) == execute_interpreted(plan, db)
