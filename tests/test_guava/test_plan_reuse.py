"""Plan reuse: ``GuavaSource.execute`` plans once per query shape.

A g-tree query's plan is cached under its shape (source, form, nodes,
condition, scope) and served for as long as the same tables and
indexes hold.  No plan depends on a data version, so a reused plan
keeps the authored conjunct order and raises exactly where the oracle
does.  Record-scoped
reads reuse one plan for every id set, rebinding the membership slots.

The differential suite drives random sequences of entries, soft deletes,
index create/drop, warehouse full rebuilds (a table dropped and created
in the source's database) and record-scoped reads with varying ids, and
after every read compares ``source.execute`` with a fresh translation run
through ``interpret.py``.  Every ``InLookup`` executed (an equality probe
or a membership one) is also checked to find its index: a reused plan
never probes a dropped one.
``TestProportionalDeltas`` checks, on every chain kind here and the three
vendor chains, that a record-scoped plan reads each table with a
``record_id`` column through a record-id probe that returns no more rows
than the requested records hold.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis import vendor_classifiers_for
from repro.clinical import build_world
from repro.errors import ReproError
from repro.expr.ast import Identifier, InList, Literal
from repro.guava import GTreeQuery, GuavaSource, translate_query
from repro.obs import explain_analyze, tracing
from repro.patterns import AuditPattern, GenericPattern, NaivePattern, PatternChain
from repro.relational import Database, DataType, TableSchema
from repro.relational.algebra import InLookup, Scan, Select
from repro.relational.interpret import execute_interpreted
from repro.relational.query import prepare_stream_plan
from repro.ui import ReportingTool
from repro.warehouse import Warehouse
from tests.conftest import build_fig2_form

CHAINS = {
    "naive": lambda: [NaivePattern()],
    "audit": lambda: [AuditPattern()],
    "generic": lambda: [GenericPattern(["procedure"])],
}

#: Conditions of the queries under test.  ``hypoxia = TRUE`` and
#: ``hypoxia = 1`` compare differently at runtime; the band query cannot
#: raise while every ``frequency`` is NULL.
CONDITIONS = (
    None,
    "hypoxia = TRUE",
    "hypoxia = 1",
    "alcohol = 'Light' OR smoking = 'Current'",
    "frequency >= 1",
)
BAND_CONDITION = "smoking = 'Never' AND frequency > 'abc'"


def _source(kind: str, db: Database | None = None) -> GuavaSource:
    tool = ReportingTool("reuse", "1.0", forms=[build_fig2_form()])
    chain = PatternChain(tool.naive_schemas(), CHAINS[kind]())
    return GuavaSource("reuse", tool, chain, db=db)


def _query(
    source: GuavaSource, condition: str | None, selected: bool = False
) -> GTreeQuery:
    query = GTreeQuery(source.gtree("procedure"))
    if condition is not None:
        query = query.where(condition)
    if selected:
        query = query.select("smoking", "frequency")
    return query


def _optimize_spans(tracer) -> list:
    """Every ``optimize`` span, wherever it nests (under ``guava.read``)."""
    return [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.name == "optimize"
    ]


def _memo_spans(tracer) -> list:
    """Every ``guava.read`` span."""
    return [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.name == "guava.read"
    ]


def _outcome(run) -> object:
    try:
        return ("rows", run())
    except ReproError as error:
        return ("error", type(error).__name__)


def _oracle(source: GuavaSource, query: GTreeQuery, ids=None) -> object:
    plan = translate_query(query, source.chain)
    if ids is not None:
        membership = InList(
            Identifier.of("record_id"), tuple(Literal(i) for i in sorted(set(ids)))
        )
        plan = Select(plan, membership)
    return _outcome(lambda: execute_interpreted(plan, source.db))


def _check(source: GuavaSource, query: GTreeQuery, ids=None) -> object:
    got = _outcome(lambda: source.execute(query, record_ids=ids))
    assert got == _oracle(source, query, ids)
    return got


@contextmanager
def probes_must_find_their_index():
    """Fail any InLookup that executes without its index."""
    in_stream = InLookup._stream

    def checked_in(self, ctx):
        assert ctx.db.table(self.table).matching_index([self.column]) is not None
        return in_stream(self, ctx)

    with mock.patch.object(InLookup, "_stream", checked_in):
        yield


def _rebuild_warehouse(warehouse: Warehouse, count: int) -> None:
    """A full rebuild: drop and re-create a table in the shared database."""
    if warehouse.has_table("mat_reuse"):
        warehouse.drop_table("mat_reuse")
    table = warehouse.ensure_table(
        TableSchema.build("mat_reuse", [("record_id", DataType.INTEGER)])
    )
    for rid in range(count):
        table.insert({"record_id": rid})


records = st.fixed_dictionaries(
    {
        "hypoxia": st.sampled_from([True, False, None]),
        "smoking": st.sampled_from(["Current", "Never", "Previous", None]),
        "frequency": st.sampled_from([2.0, 0.5, None]),
        "alcohol": st.sampled_from(["Light", "Heavy", "now and then", None]),
    }
).map(
    # The form enables ``frequency`` only once ``smoking`` is answered,
    # so it is entered after it.
    lambda values: {
        k: values[k]
        for k in ("smoking", "frequency", "hypoxia", "alcohol")
        if values[k] is not None and (k != "frequency" or values["smoking"])
    }
)

reads = st.one_of(
    st.tuples(st.just("read"), st.booleans()),
    st.tuples(st.just("scoped"), st.lists(st.integers(1, 40), max_size=6)),
)
mutations = st.one_of(
    st.tuples(st.just("enter"), records),
    # Entries that give ``frequency`` its first value cross the band
    # query's type band; one of them makes the authored order raise.
    st.tuples(
        st.just("enter"),
        st.sampled_from(
            [
                {"smoking": "Current", "frequency": 2.0},
                {"smoking": "Never", "frequency": 1.0},
            ]
        ),
    ),
    st.tuples(st.just("delete"), st.integers(1, 12)),
    st.tuples(st.just("index"), st.integers(0, 50)),
    st.tuples(st.just("drop_index"), st.integers(0, 50)),
    st.tuples(st.just("rebuild"), st.integers(0, 30)),
)


class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(sorted(CHAINS)),
        # Seeded rows leave ``frequency`` NULL, so the band query starts out
        # certified and an entered frequency crosses bands.
        seed_records=st.lists(
            records.map(
                lambda values: {k: v for k, v in values.items() if k != "frequency"}
            ),
            min_size=1,
            max_size=5,
        ),
        copies=st.integers(12, 20),
        # Half the steps read, so most programs read the same shapes again
        # after a change.
        program=st.lists(st.one_of(reads, mutations), min_size=4, max_size=25),
    )
    def test_execute_matches_a_fresh_translation(
        self, kind, seed_records, copies, program
    ):
        source = _source(kind)
        warehouse = Warehouse(db=source.db)
        session = source.session()
        # Enough rows that reads are served reused plans as well as fresh.
        for values in seed_records * copies:
            session.enter("procedure", values)
        columns = sorted(
            (table, column)
            for table, schema in source.chain.physical_schemas.items()
            for column in schema.column_names
        )
        with probes_must_find_their_index():
            for op, arg in program:
                if op == "enter":
                    session.enter("procedure", arg)
                elif op == "delete":
                    source.chain.soft_delete(source.db, "procedure", arg)
                    source.track_change(arg, form="procedure")
                elif op in ("index", "drop_index"):
                    table, column = columns[arg % len(columns)]
                    target = source.db.table(table)
                    if op == "index":
                        target.create_index((column,))
                    elif target.matching_index([column]) is not None:
                        target.drop_index((column,))
                elif op == "rebuild":
                    _rebuild_warehouse(warehouse, arg)
                elif op == "read":
                    for condition in CONDITIONS + (BAND_CONDITION,):
                        _check(source, _query(source, condition, arg))
                else:
                    # Record-scoped reads use conditions that cannot raise:
                    # the oracle filters by id only after evaluating the
                    # condition on every row, while the optimized plan
                    # probes the ids first.
                    for condition in CONDITIONS:
                        _check(source, _query(source, condition), arg)


class TestPinnedCases:
    def test_a_reused_plan_raises_where_the_oracle_does_after_crossing_bands(self):
        source = _source("naive")
        session = source.session()
        for _ in range(6):
            session.enter("procedure", {"smoking": "Never"})
            session.enter("procedure", {"smoking": "Previous"})
        query = _query(source, BAND_CONDITION)
        assert _check(source, query)[0] == "rows"
        # Crossing bands on a row the authored order never compares: the
        # reused plan keeps that order, so it does not raise either.  The
        # write bypasses the change feed, so the kept rows cannot be
        # patched and the read runs the cached full plan.
        source.db.table("procedure").insert(
            {"record_id": 1000, "smoking": "Current", "frequency": 2.0}
        )
        with tracing() as tracer:
            assert _check(source, query)[0] == "rows"
        assert [span.attrs["result_memo"] for span in _memo_spans(tracer)] == ["miss"]
        spans = _optimize_spans(tracer)
        assert [span.attrs.get("plan_cache") for span in spans] == ["hit"]
        # The raising case: the comparison is reached, so every plan raises.
        session.enter("procedure", {"smoking": "Never", "frequency": 1.0})
        assert _check(source, query)[0] == "error"

    def test_dropped_index_is_never_probed(self):
        source = _source("naive")
        session = source.session()
        for smoking in ("Never", "Current", "Never"):
            session.enter("procedure", {"smoking": smoking})
        table = source.db.table("procedure")
        table.create_index(("smoking",))
        query = _query(source, "smoking = 'Never'")
        with probes_must_find_their_index():
            assert len(_check(source, query)[1]) == 2
            table.drop_index(("smoking",))
            assert len(_check(source, query)[1]) == 2
            ids = [1, 2, 3]
            table.create_index(("record_id",))
            _check(source, query, ids)
            table.drop_index(("record_id",))
            _check(source, query, ids)

    def test_literal_one_and_true_never_share_an_entry(self):
        source = _source("naive")
        session = source.session()
        session.enter("procedure", {"hypoxia": True})
        session.enter("procedure", {"hypoxia": False})
        as_true = _check(source, _query(source, "hypoxia = TRUE"))
        as_one = _check(source, _query(source, "hypoxia = 1"))
        assert len(as_true[1]) == 1
        assert as_one[1] == []
        # Repeats hit their own entries and still differ.
        assert _check(source, _query(source, "hypoxia = 1"))[1] == []
        assert _check(source, _query(source, "hypoxia = TRUE")) == as_true

    def test_rebinding_never_leaks_ids_between_calls(self):
        source = _source("generic")
        session = source.session()
        for index in range(8):
            session.enter("procedure", {"smoking": "Never", "hypoxia": index % 2 == 0})
        query = _query(source, None)
        seen = []
        for ids in ([1, 2, 3], [4], [], [2, 7], [8, 1]):
            rows = _check(source, query, ids)[1]
            assert sorted(row["record_id"] for row in rows) == sorted(ids)
            seen.append(rows)
        # One plan served every id set after the first.
        hits = []
        real_get = Database.plan_cache_get

        def counting(db, key, epoch):
            found = real_get(db, key, epoch)
            hits.append(found is not None)
            return found

        with mock.patch.object(Database, "plan_cache_get", counting):
            _check(source, query, [5, 6])
        assert hits == [True]

    def test_a_reused_plan_traces_a_cache_hit(self):
        source = _source("naive")
        session = source.session()
        for smoking in ["Never"] + ["Current"] * 19:
            session.enter("procedure", {"smoking": smoking})
        query = _query(source, "smoking = 'Never'")
        source.execute(query)
        # A new data version, written past the change feed so the kept
        # rows cannot be patched.
        source.db.table("procedure").insert({"record_id": 1000, "smoking": "Current"})
        calls = []
        real_get = Database.plan_cache_get

        def counting(db, key, epoch):
            found = real_get(db, key, epoch)
            calls.append(found is not None)
            return found

        with mock.patch.object(Database, "plan_cache_get", counting):
            with tracing() as tracer:
                rows = source.execute(query)
        assert calls == [True]
        assert [row["record_id"] for row in rows] == [1]
        spans = _optimize_spans(tracer)
        assert [span.attrs.get("plan_cache") for span in spans] == ["hit"]
        assert not any(key.startswith("rewrite.") for key in spans[0].attrs)

    def test_sources_sharing_a_database_never_share_plans(self):
        # Same name, same form, same query, different chains: only the
        # source's own key tag keeps their plans apart.
        db = Database("shared")
        naive = _source("naive", db)
        eav = _source("generic", db)
        naive.session().enter("procedure", {"smoking": "Never"})
        assert len(_check(naive, _query(naive, None))[1]) == 1
        assert _check(eav, _query(eav, None))[1] == []


def _record_scoped_sources():
    """Every CHAINS kind and the three vendor chains, with data entered."""
    for kind in sorted(CHAINS):
        source = _source(kind)
        session = source.session()
        for index in range(12):
            session.enter(
                "procedure", {"smoking": "Never", "hypoxia": index % 3 == 0}
            )
        yield kind, source, _query(source, None)
    for source in build_world(90, seed=3).sources:
        entity = vendor_classifiers_for(source).entity_classifier
        yield source.name, source, GTreeQuery(source.gtree(entity.form)).where(
            entity.condition
        )


class TestProportionalDeltas:
    """A record-scoped read touches only the requested records' rows."""

    def test_every_record_table_is_probed_by_record_id(self):
        for name, source, query in _record_scoped_sources():
            ids = (2, 3, 5)
            plan = Select(
                translate_query(query, source.chain),
                InList(Identifier.of("record_id"), tuple(Literal(i) for i in ids)),
            )
            prepared = prepare_stream_plan(plan, source.db)
            record_leaves = [
                node
                for node in prepared.walk()
                if isinstance(node, (Scan, InLookup))
                and source.db.table(node.table).schema.has_column("record_id")
            ]
            assert record_leaves, name
            for leaf in record_leaves:
                assert isinstance(leaf, InLookup) and leaf.column == "record_id", (
                    name,
                    leaf,
                )
            report = explain_analyze(plan, source.db)
            probed = [
                (node, span)
                for node, span in report.node_spans()
                if isinstance(node, InLookup) and node.column == "record_id"
            ]
            assert len(probed) == len(record_leaves), name
            for node, span in probed:
                wanted = sum(
                    1
                    for row in source.db.table(node.table).rows()
                    if row["record_id"] in ids
                )
                assert span.attrs["bucket_rows"] <= wanted, (name, node.table)
            assert report.rows == execute_interpreted(plan, source.db), name
