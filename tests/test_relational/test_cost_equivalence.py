"""Estimates never change query results, and plans keep their authored order.

Cardinality estimates feed ``explain_analyze`` only; index access paths
are ranked by bucket sizes, and nothing reorders joins, join sides or
conjuncts.  Joins, join chains and conjunctions — including NULL-heavy
columns, skewed join keys and a conjunct that raises when reached — must
be *bit-identical* to the interpreted oracle in rows, row order and
error, both as written and as optimized.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.expr.parser import parse
from repro.relational import (
    Database,
    DataType,
    Query,
    TableSchema,
    execute_interpreted,
)
from repro.relational.algebra import Join, Scan, Select
from repro.relational.cost import NDV_SAMPLE_ROWS, column_ndv
from repro.relational.query import optimize
from repro.obs.explain import explain_analyze

ROWS = 2125  # large enough that NDV is sampled, not counted

VENDORS = ["acme", "globex", "initech", None]


def _build_db() -> Database:
    db = Database("cost-eq")
    db.create_table(
        TableSchema.build(
            "big",
            [
                ("seq", DataType.INTEGER),
                ("key", DataType.INTEGER),
                ("vendor", DataType.TEXT),
                ("value", DataType.INTEGER),
                ("note", DataType.TEXT),
                ("mixed", DataType.TEXT),
            ],
        )
    )
    db.insert(
        "big",
        [
            {
                "seq": i,
                # Skewed: 80% of non-null keys collapse onto key=1.
                "key": None if i % 13 == 0 else (1 if i % 5 else i % 40),
                "vendor": VENDORS[i % len(VENDORS)],
                # NULL-heavy: every third value missing.
                "value": None if i % 3 == 0 else (i * 37) % 50,
                "note": f"note-{i % 11}",
                # String column an ordering-vs-number comparison raises on.
                "mixed": f"m{i}",
            }
            for i in range(ROWS)
        ],
    )
    db.create_table(
        TableSchema.build(
            "small",
            [("key", DataType.INTEGER), ("label", DataType.TEXT)],
            primary_key=("key",),
        )
    )
    db.insert("small", [{"key": i, "label": f"k{i}"} for i in range(12)])
    return db


@pytest.fixture(scope="module")
def db() -> Database:
    return _build_db()


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_three_way(db, plan) -> None:
    """Interpreted oracle vs streaming as written vs optimized, rows AND
    order."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    assert _outcome(lambda: plan.execute(db)) == reference
    assert _outcome(lambda: optimize(plan, db).execute(db)) == reference


def _the_join(plan) -> Join:
    joins = [node for node in plan.walk() if isinstance(node, Join)]
    assert joins, f"no Join in {plan!r}"
    return joins[0]


# -- join sides ----------------------------------------------------------------


def test_no_flip_when_left_is_larger(db):
    plan = Join(Scan("big"), Scan("small"), (("key", "key"),))
    assert _the_join(optimize(plan, db)).left == Scan("big")
    _assert_three_way(db, plan)


def test_no_flip_without_error_freedom_proof(db):
    # A far smaller left input with a filter: the sides stay as written,
    # and every executor consumes the right side first.
    left = Select(Scan("small"), parse("key + 0 >= 0"))
    plan = Join(left, Scan("big"), (("key", "key"),))
    assert _the_join(optimize(plan, db)).left == left
    _assert_three_way(db, plan)


# -- join chains ---------------------------------------------------------------


def _chain_db() -> Database:
    db = Database("cost-chain")
    db.create_table(
        TableSchema.build(
            "base",
            [
                ("a", DataType.INTEGER),
                ("b", DataType.INTEGER),
                ("c", DataType.INTEGER),
                ("x", DataType.INTEGER),
            ],
        )
    )
    db.insert(
        "base",
        [{"a": i % 50, "b": i % 300, "c": i % 900, "x": i} for i in range(3000)],
    )
    for name, column, count in (("d_a", "a", 40), ("d_b", "b", 30), ("d_c", "c", 900)):
        db.create_table(
            TableSchema.build(
                name,
                [(column, DataType.INTEGER), (f"p_{column}", DataType.TEXT)],
                primary_key=(column,),
            )
        )
        db.insert(name, [{column: i, f"p_{column}": f"{name}{i}"} for i in range(count)])
    return db


def _worst_first_chain():
    return Join(
        Join(
            Join(Scan("base"), Scan("d_c"), (("c", "c"),)),
            Scan("d_a"),
            (("a", "a"),),
        ),
        Scan("d_b"),
        (("b", "b"),),
    )


def test_chain_reorder_bit_identical_all_executors():
    db = _chain_db()
    plan = _worst_first_chain()
    reference = _outcome(lambda: execute_interpreted(plan, db))
    assert reference[0] == "ok"
    _assert_three_way(db, plan)
    # Columns come out in the authored order.
    rows = optimize(plan, db).execute(db)
    assert list(rows[0]) == list(reference[1][0])


def test_chain_without_primary_keys_keeps_authored_order():
    db = _chain_db()
    db.create_table(
        TableSchema.build("d_nopk", [("c", DataType.INTEGER), ("q", DataType.TEXT)])
    )
    db.insert("d_nopk", [{"c": i, "q": f"q{i}"} for i in range(10)])
    plan = Join(
        Join(
            Join(Scan("base"), Scan("d_nopk"), (("c", "c"),)),
            Scan("d_a"),
            (("a", "a"),),
        ),
        Scan("d_b"),
        (("b", "b"),),
    )
    order = [
        node.right.table
        for node in optimize(plan, db).walk()
        if isinstance(node, Join) and isinstance(node.right, Scan)
    ]
    assert list(reversed(order)) == ["d_nopk", "d_a", "d_b"]
    _assert_three_way(db, plan)


# -- conjunct order -------------------------------------------------------------


def test_dictionary_like_stays_before_weaker_equality(db):
    # ``note`` has 11 distinct values and ``key = 1`` keeps most rows; the
    # authored order is the evaluated order all the same.
    plan = Query.table("big").where("note LIKE 'note-3%' AND key = 1").plan
    optimized = optimize(plan, db)
    selects = [n for n in optimized.walk() if isinstance(n, Select)]
    source = selects[0].predicate.to_source()
    assert source.index("LIKE") < source.index("key = 1")
    _assert_three_way(db, plan)


def test_error_conjunct_is_never_hoisted(db):
    # ``mixed > 5`` compares strings against a number: the evaluator
    # raises on every row it actually reaches.  ``seq < 0`` is false on
    # every row (never NULL), so the interpreted oracle short-circuits
    # the error away entirely — and so must every optimized executor.
    alone = _outcome(lambda: optimize(Query.table("big").where("mixed > 5").plan, db).execute(db))
    assert alone[0] == "err"  # the conjunct genuinely raises when reached
    plan = Query.table("big").where("seq < 0 AND mixed > 5").plan
    reference = _outcome(lambda: execute_interpreted(plan, db))
    assert reference == ("ok", [])
    _assert_three_way(db, plan)


def test_safe_conjuncts_do_not_cross_a_barrier(db):
    # The selective equality stays behind ``mixed > 5``, which raises.
    plan = Query.table("big").where("mixed > 5 AND vendor = 'acme'").plan
    optimized = optimize(plan, db)
    selects = [n for n in optimized.walk() if isinstance(n, Select)]
    source = selects[0].predicate.to_source()
    assert source.index("mixed") < source.index("vendor")
    # Both orders raise here (mixed > 5 is first and always evaluated).
    _assert_three_way(db, plan)


# -- randomized equivalence (interpreted, streaming, optimized) ----------------

SAFE_CONJUNCTS = [
    "value = 7",
    "vendor = 'acme'",
    "vendor != 'globex'",
    "value IS NULL",
    "value IS NOT NULL",
    "note LIKE 'note-1%'",
    "value > 25",
    "seq < 100",
    "vendor IN ('acme', 'initech')",
    "key = 1",
]

BARRIER_CONJUNCTS = [
    "mixed > 5",          # raises when reached
    "value + seq > 40",   # arithmetic: no proof, though it never raises
    "seq % 2 = 0",
]


@settings(max_examples=40, deadline=None)
@given(
    conjuncts=st.lists(
        st.sampled_from(SAFE_CONJUNCTS + BARRIER_CONJUNCTS),
        min_size=2,
        max_size=4,
        unique=True,
    )
)
def test_randomized_predicates_four_way(db, conjuncts):
    plan = Query.table("big").where(" AND ".join(conjuncts)).plan
    _assert_three_way(db, plan)


@settings(max_examples=20, deadline=None)
@given(keys=st.lists(st.integers(min_value=0, max_value=45), min_size=1, max_size=8))
def test_randomized_skewed_joins_four_way(db, keys):
    probe = Database("cost-probe")
    probe.create_table(
        TableSchema.build(
            "big",
            [(c.name, c.dtype) for c in db.table("big").schema.columns],
        )
    )
    probe.insert("big", db.table("big").rows())
    probe.create_table(
        TableSchema.build("dim", [("key", DataType.INTEGER), ("tag", DataType.TEXT)])
    )
    probe.insert("dim", [{"key": k, "tag": f"t{k}"} for k in keys])
    plan = Join(Scan("dim"), Scan("big"), (("key", "key"),))
    _assert_three_way(probe, plan)


# -- estimates surfaced in explain_analyze -------------------------------------


def test_estimated_rows_and_q_error_in_explain_analyze(db):
    report = explain_analyze(
        Query.table("big").where("value = 7 AND note LIKE 'note-3%'"), db
    )
    annotated = [
        span.attrs
        for _node, span in report.node_spans()
        if "rows_out" in span.attrs
    ]
    assert annotated, "no measured spans"
    for attrs in annotated:
        assert "estimated_rows" in attrs
        assert attrs["q_error"] >= 1.0


# -- NDV ------------------------------------------------------------------------


def test_ndv_counts_small_extents_and_samples_large_ones(db):
    small = column_ndv(db.table("small"), "key")
    assert small == (12.0, "extent")
    # 2,125 rows: counted outright (a stride of one).
    assert column_ndv(db.table("big"), "note") == (11.0, "extent")
    local = _build_db()
    local.insert(
        "big",
        [{"seq": ROWS + i, "key": 1, "vendor": None, "value": None,
          "note": f"note-{i % 11}", "mixed": "x"} for i in range(NDV_SAMPLE_ROWS * 2)],
    )
    ndv, source = column_ndv(local.table("big"), "note")
    assert source == "sample" and ndv == 11.0
    assert column_ndv(local.table("big"), "absent") is None


def test_stale_estimates_never_leak_into_executed_rows():
    # Mutations after planning-stats builds must still produce exact rows:
    # estimates choose among proven-equivalent plans, execution reads
    # current-version data.
    local = _build_db()
    plan = Query.table("big").where("vendor = 'acme' AND value = 7").plan
    _assert_three_way(local, plan)  # warm the plan cache
    local.insert("big", [{"seq": ROWS + 7, "key": 2, "vendor": "acme",
                          "value": 7, "note": "note-3", "mixed": "mZ"}])
    kind, rows = _outcome(lambda: execute_interpreted(plan, local))
    assert kind == "ok"
    assert any(r["seq"] == ROWS + 7 for r in rows)
    _assert_three_way(local, plan)
