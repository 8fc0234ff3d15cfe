"""Zone-map skipping and dictionary kernels never change query results.

The statistics layer is pure acceleration: with it on, the batch executor
must still produce bit-identical rows (values *and* order) to the
interpreted oracle and the streaming executor — including NULL-heavy
columns, predicates that straddle chunk boundaries, mixed-type columns
that force encoding refusal, and mutations between queries that make the
cached statistics stale.  Error parity follows the repo-wide relaxation:
same exception *type*, possibly a different originating row.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.expr.ast import BinaryOp, Identifier, InList, IsNull, Literal
from repro.expr.parser import parse
from repro.relational import (
    AggregateSpec,
    BATCH_SIZE,
    Database,
    DataType,
    Dictionary,
    Query,
    TableSchema,
    Vectorized,
    encoding_states,
    execute_interpreted,
    set_statistics_enabled,
)
from repro.relational import stats as S
from repro.obs.explain import explain_analyze

ROWS = BATCH_SIZE * 3 + 100  # three full chunks plus a ragged tail

VENDORS = ["acme", "globex", "initech", "umbrella", None]


def _build_db() -> Database:
    db = Database("stats-eq")
    db.create_table(
        TableSchema.build(
            "readings",
            [
                ("seq", DataType.INTEGER),
                ("vendor", DataType.TEXT),
                ("value", DataType.INTEGER),
                ("note", DataType.TEXT),
            ],
        )
    )
    db.insert(
        "readings",
        [
            {
                "seq": i,
                "vendor": VENDORS[i % len(VENDORS)],
                # NULL-heavy: every third value missing.
                "value": None if i % 3 == 0 else (i * 37) % 50,
                # High-cardinality text: encoding refused, stays raw.
                "note": f"note-{i}",
            }
            for i in range(ROWS)
        ],
    )
    return db


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_three_way(db, predicate) -> None:
    plan = Query.table("readings").where(predicate).plan
    reference = _outcome(lambda: execute_interpreted(plan, db))
    streaming = _outcome(lambda: plan.execute(db))
    batch = _outcome(lambda: Vectorized(plan).execute(db))
    assert streaming == reference
    if reference[0] == "err":
        assert batch[0] == "err"
    else:
        assert batch == reference


# -- randomized predicates over a shared read-only database --------------------

_DB = _build_db()

# Boundary-heavy literals: chunk edges, their neighbours, and plain values.
_seq_literals = st.sampled_from(
    [0, 1, 100, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1,
     2 * BATCH_SIZE, ROWS - 1, ROWS, -5]
)
_vendor_literals = st.sampled_from(["acme", "umbrella", "zzz", "", None, 7])
_value_literals = st.one_of(st.integers(-2, 55), st.none())


@st.composite
def _conjunct(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        column, literal = Identifier.of("seq"), Literal(draw(_seq_literals))
        if draw(st.booleans()):
            return BinaryOp(S._FLIPPED_COMPARE.get(op, op), literal, column)
        return BinaryOp(op, column, literal)
    if kind == 1:
        op = draw(st.sampled_from(["=", "!=", "LIKE"]))
        value = draw(
            st.sampled_from(["acme", "a%", "%e%", "zzz"]) if op == "LIKE"
            else _vendor_literals
        )
        return BinaryOp(op, Identifier.of("vendor"), Literal(value))
    if kind == 2:
        items = tuple(
            Literal(draw(_vendor_literals))
            for _ in range(draw(st.integers(1, 3)))
        )
        return InList(Identifier.of("vendor"), items, negated=draw(st.booleans()))
    if kind == 3:
        column = draw(st.sampled_from(["value", "vendor"]))
        return IsNull(Identifier.of(column), negated=draw(st.booleans()))
    op = draw(st.sampled_from(["=", "<", ">="]))
    return BinaryOp(op, Identifier.of("value"), Literal(draw(_value_literals)))


@st.composite
def _predicates(draw):
    conjuncts = draw(st.lists(_conjunct(), min_size=1, max_size=3))
    predicate = conjuncts[0]
    for extra in conjuncts[1:]:
        predicate = BinaryOp("AND", predicate, extra)
    return predicate


@given(predicate=_predicates())
@settings(max_examples=120, deadline=None)
def test_randomized_predicates_three_way(predicate):
    _assert_three_way(_DB, predicate)


# -- deterministic scenarios ---------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        f"seq >= {BATCH_SIZE - 2} AND seq <= {BATCH_SIZE + 2}",
        f"seq = {BATCH_SIZE}",
        f"seq = {BATCH_SIZE - 1}",
        f"seq > {3 * BATCH_SIZE}",  # only the ragged tail chunk survives
        "seq < 0",  # every chunk skipped
        "value IS NULL AND seq < 10",
        "vendor IS NULL",
        "vendor = 'acme' AND value >= 25",
        "vendor IN ('acme', 'globex') AND seq >= 2048",
        "vendor LIKE 'a%'",
        "note = 'note-42'",
    ],
)
def test_boundary_predicates(text):
    _assert_three_way(_build_db(), parse(text))


def test_cross_band_comparison_error_parity():
    # vendor < 5 raises in the evaluator; skipping those chunks would
    # silently swallow the error.
    _assert_three_way(_build_db(), parse("vendor < 5 AND seq >= 0"))


def test_skipped_chunks_elide_doomed_conjunct_errors():
    # When the seq range skips every chunk, the vectorized path never
    # evaluates the doomed cross-band conjunct (which the row-wise
    # evaluator, going left-to-right, trips on first) — a documented
    # relaxation: only reachable chunks can raise.
    db = _build_db()
    plan = Query.table("readings").where(parse("vendor < 5 AND seq < 0")).plan
    with pytest.raises(ReproError):
        execute_interpreted(plan, db)
    assert Vectorized(plan).execute(db) == []


def test_mixed_type_column_forces_refusal_and_stays_equivalent():
    db = _build_db()
    table = db.table("readings")
    # Simulate untyped upstream data: a non-string value slips into a
    # TEXT column (white-box — coercion would normalise it on insert).
    table._rows[5]["vendor"] = 7
    table._version += 1
    assert encoding_states(table)["vendor"] == S.REFUSED_MIXED_TYPE
    for text in ["vendor = 'acme'", "vendor != 'acme'", "vendor IN ('acme', 'zzz')"]:
        _assert_three_way(db, parse(text))
    _assert_three_way(db, parse("vendor = 7"))


def test_mutation_between_queries_rebuilds_statistics():
    db = _build_db()
    table = db.table("readings")
    predicate = parse(f"seq >= {ROWS}")
    plan = Query.table("readings").where(predicate).plan
    assert Vectorized(plan).execute(db) == []
    stale_zone = S.column_zone_map(table, "seq")
    stale_states = encoding_states(table)
    # Rows beyond the old max arrive; the cached zone map would skip them.
    db.insert(
        "readings",
        [
            {"seq": ROWS + i, "vendor": "newvendor", "value": 1, "note": "n"}
            for i in range(50)
        ],
    )
    assert S.column_zone_map(table, "seq") is not stale_zone
    assert encoding_states(table) is not stale_states
    rows = Vectorized(plan).execute(db)
    assert len(rows) == 50
    assert rows == execute_interpreted(plan, db)
    vendor_dictionary = encoding_states(table)["vendor"]
    assert isinstance(vendor_dictionary, Dictionary)
    assert "newvendor" in vendor_dictionary.code_of


def test_statistics_toggle_leaves_results_unchanged():
    db = _build_db()
    plan = Query.table("readings").where(
        parse(f"seq >= {BATCH_SIZE} AND seq < {BATCH_SIZE + 64} AND vendor = 'acme'")
    ).plan
    previous = set_statistics_enabled(False)
    try:
        baseline = Vectorized(plan).execute(db)
    finally:
        set_statistics_enabled(previous)
    assert Vectorized(plan).execute(db) == baseline
    assert baseline == execute_interpreted(plan, db)


def test_gauges_reported_in_explain_analyze():
    db = _build_db()
    plan = Query.table("readings").where(
        parse(f"seq >= {BATCH_SIZE} AND seq < {BATCH_SIZE + 10}")
    ).plan
    report = explain_analyze(plan, db, executor="batch")
    rendered = report.render()
    assert "chunks_skipped=3" in rendered
    assert "chunks_total=4" in rendered
    assert "conjuncts_short_circuited=" in rendered
    assert report.rows == execute_interpreted(plan, db)


def test_aggregate_distinct_join_on_dictionary_codes():
    db = _build_db()
    db.create_table(
        TableSchema.build(
            "vendors", [("vendor", DataType.TEXT), ("region", DataType.TEXT)]
        )
    )
    db.insert(
        "vendors",
        [
            {"vendor": "acme", "region": "east"},
            {"vendor": "globex", "region": "west"},
            {"vendor": "acme", "region": "west"},
        ],
    )
    group = (
        Query.table("readings")
        .aggregate(
            ("vendor",),
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("MAX", "value", "mx"),
        )
        .plan
    )
    assert Vectorized(group).execute(db) == execute_interpreted(group, db)

    distinct = Query.table("readings").select("vendor").distinct().plan
    assert Vectorized(distinct).execute(db) == execute_interpreted(distinct, db)

    join = (
        Query.table("readings")
        .join(Query.table("vendors"), on=(("vendor", "vendor"),))
        .plan
    )
    assert Vectorized(join).execute(db) == execute_interpreted(join, db)
