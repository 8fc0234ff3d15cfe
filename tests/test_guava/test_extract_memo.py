"""The result memo: a g-tree view read once per data version.

``GuavaSource.execute`` keeps a full read's rows under its plan-cache key,
stamped with the plan epoch, the chain tables' data versions and the
restore generation.  A key's first read keeps a copy of the rows, and
later reads at that stamp are served copies of them.  Each case below
reads until the memo hits (the ``guava.read`` span's ``result_memo``
attribute says so), then changes something and checks the next read
misses (or, for a new record entered through a session, is patched) and
still equals a fresh ``interpret.py`` run of the translated plan.  ``test_delta_memo.py``
covers the patch path.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis import build_study2
from repro.clinical import build_world
from repro.errors import ReproError
from repro.etl import compile_study
from repro.guava import GTreeQuery, GuavaSource, translate_query
from repro.guava.derive import derive_gtree
from repro.obs import tracing
from repro.patterns import GenericPattern, NaivePattern, PatternChain
from repro.relational import Database
from repro.relational.interpret import execute_interpreted
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form

CHAINS = {
    "naive": lambda: [NaivePattern()],
    "generic": lambda: [GenericPattern(["procedure"])],
}


def _source(kind: str = "naive") -> GuavaSource:
    tool = ReportingTool("memo", "1.0", forms=[build_fig2_form()])
    chain = PatternChain(tool.naive_schemas(), CHAINS[kind]())
    source = GuavaSource("memo", tool, chain)
    session = source.session()
    for smoking, hypoxia in (
        ("Never", True),
        ("Current", False),
        ("Previous", True),
        ("Never", None),
    ):
        values = {"smoking": smoking}
        if hypoxia is not None:
            values["hypoxia"] = hypoxia
        session.enter("procedure", values)
    return source


def _query(source: GuavaSource, condition: str | None = "hypoxia = TRUE") -> GTreeQuery:
    query = GTreeQuery(source.gtree("procedure"))
    return query if condition is None else query.where(condition)


def _oracle(source: GuavaSource, query: GTreeQuery) -> list[dict]:
    return execute_interpreted(translate_query(query, source.chain), source.db)


def _outcomes(tracer) -> list:
    """The memo outcome of every ``guava.read`` span, in trace order."""
    return [
        span.attrs["result_memo"]
        for root in tracer.roots
        for span in root.walk()
        if span.name == "guava.read"
    ]


def _read(source: GuavaSource, query: GTreeQuery, **kwargs) -> tuple[list[dict], list]:
    """The rows of one read and the memo outcomes its trace records."""
    with tracing() as tracer:
        rows = source.execute(query, **kwargs)
    return rows, _outcomes(tracer)


def _read_until_hit(
    source: GuavaSource, query: GTreeQuery, missed: bool = False
) -> list[dict]:
    """Read at one data version until the memo hits: miss, hit (just hit
    when the last read at this version ``missed``)."""
    expected = ["hit"] if missed else ["miss", "hit"]
    outcomes = []
    for _ in expected:
        rows, (outcome,) = _read(source, query)
        assert rows == _oracle(source, query)
        outcomes.append(outcome)
    assert outcomes == expected
    return rows


def _misses(source: GuavaSource, query: GTreeQuery) -> list[dict]:
    rows, outcomes = _read(source, query)
    assert outcomes == ["miss"]
    assert rows == _oracle(source, query)
    return rows


@pytest.mark.parametrize("kind", sorted(CHAINS))
class TestInvalidation:
    def test_entry_through_a_session_is_patched(self, kind):
        source = _source(kind)
        query = _query(source)
        (name,) = source.chain.physical_schemas
        # The refresh path builds this index; a read never does.
        source.db.table(name).create_index(("record_id",))
        before = _read_until_hit(source, query)
        source.session(first_record_id=100).enter(
            "procedure", {"smoking": "Current", "hypoxia": True}
        )
        after, outcomes = _read(source, query)
        assert outcomes == ["delta"]
        assert after == _oracle(source, query)
        assert len(after) == len(before) + 1

    def test_direct_insert_update_and_delete_each_miss(self, kind):
        source = _source(kind)
        query = _query(source)
        (name,) = source.chain.physical_schemas
        table = source.db.table(name)
        _read_until_hit(source, query)
        table.insert(dict(table.rows()[0], record_id=50))
        _misses(source, query)
        _read_until_hit(source, query, missed=True)
        assert table.update(lambda row: row["record_id"] == 50, {"record_id": 51})
        _misses(source, query)
        _read_until_hit(source, query, missed=True)
        assert table.delete(lambda row: row["record_id"] == 1)
        _misses(source, query)
        _read_until_hit(source, query, missed=True)

    def test_a_restore_that_rewinds_the_version_misses(self, kind):
        source = _source(kind)
        query = _query(source, None)
        (name,) = source.chain.physical_schemas
        table = source.db.table(name)
        stamped = table.version
        before = _read_until_hit(source, query)
        # Other rows at the very data version the memo stamped.
        rows = [dict(row) for row in table.rows()]
        del rows[0]
        table.restore_extent(rows)
        table.restore_counters(stamped)
        assert table.version == stamped
        after = _misses(source, query)
        assert after != before
        _read_until_hit(source, query, missed=True)

    def test_plan_cache_clear_drops_the_memo(self, kind):
        source = _source(kind)
        query = _query(source)
        _read_until_hit(source, query)
        source.db.plan_cache_clear()
        _misses(source, query)

    def test_an_index_change_misses(self, kind):
        source = _source(kind)
        query = _query(source)
        (name,) = source.chain.physical_schemas
        _read_until_hit(source, query)
        source.db.table(name).create_index(("record_id",))
        _misses(source, query)


class TestRowsAreTheCallers:
    def test_mutating_returned_rows_never_reaches_the_memo(self):
        source = _source()
        query = _query(source, None)
        expected = _oracle(source, query)
        for outcome in ("miss", "hit", "hit", "hit"):
            rows, outcomes = _read(source, query)
            assert outcomes == [outcome]
            assert rows == expected
            for row in rows:
                row["smoking"] = "mutated"
                row["extra"] = 1
            rows.append({"record_id": -1})


class TestNothingStored:
    def test_a_read_that_raises_stores_nothing(self):
        source = _source()
        source.session(first_record_id=100).enter(
            "procedure", {"smoking": "Never", "frequency": 1.0}
        )
        query = _query(source, "smoking = 'Never' AND frequency > 'abc'")
        with pytest.raises(ReproError):
            _oracle(source, query)
        for _ in range(3):
            with tracing() as tracer:
                with pytest.raises(ReproError):
                    source.execute(query)
            assert _outcomes(tracer) == ["error"]
        assert source.db._result_memo == {}

    def test_scoped_reads_are_never_memoized(self):
        source = _source()
        query = _query(source, None)
        for ids in ([1, 2], [1, 2], [1, 2], [3]):
            rows, outcomes = _read(source, query, record_ids=ids)
            assert outcomes == []
            assert sorted(row["record_id"] for row in rows) == sorted(ids)
        assert source.db._result_memo == {}

    def test_foreign_gtrees_bypass_the_memo(self):
        source = _source()
        foreign = derive_gtree(source.tool, "procedure")
        assert foreign is not source.gtree("procedure")
        query = GTreeQuery(foreign).where("hypoxia = TRUE")
        for _ in range(3):
            rows, outcomes = _read(source, query)
            assert outcomes == ["bypass"]
            assert rows == _oracle(source, query)
        assert source.db._result_memo == {}


class TestBound:
    def test_the_memo_clears_when_full(self):
        source = _source()
        source.db.PLAN_CACHE_LIMIT = 3
        queries = [
            _query(source, condition)
            for condition in (
                "hypoxia = TRUE",
                "smoking = 'Never'",
                "smoking = 'Current'",
                "smoking = 'Previous'",
            )
        ]
        for query in queries[:3]:
            _read_until_hit(source, query)
        assert len(source.db._result_memo) == 3
        # A fourth key clears the full memo before it is stored...
        _misses(source, queries[3])
        assert len(source.db._result_memo) == 1
        # ...so the first shape starts over, and an update of a kept key
        # never clears.
        _misses(source, queries[0])
        _read_until_hit(source, queries[3], missed=True)
        assert len(source.db._result_memo) == 2


def _multiset(rows: list[dict]) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in rows)


class TestStudies:
    def test_preview_mutate_preview_publish_agree(self):
        world = build_world(40, seed=3)
        study = build_study2(world)

        def publish() -> list[dict]:
            warehouse = Database("wh")
            compile_study(study, warehouse).run()
            (table,) = warehouse.table_names()
            return warehouse.table(table).rows()

        first = study.run().rows("Procedure")
        assert _multiset(publish()) == _multiset(first)
        # Drop one record from every source behind the change feed's back.
        for source in world.sources:
            for name in source.chain.physical_schemas:
                table = source.db.table(name)
                if "record_id" in table.schema.column_names and len(table):
                    rid = min(row["record_id"] for row in table.rows())
                    table.delete(lambda row, rid=rid: row["record_id"] == rid)
        with tracing() as tracer:
            preview = study.run().rows("Procedure")
        reads = _outcomes(tracer)
        assert reads == ["miss"] * len(world.sources)
        assert _multiset(preview) != _multiset(first)
        for _ in range(2):  # served by the memo
            assert _multiset(publish()) == _multiset(preview)
        for source in world.sources:
            source.db.plan_cache_clear()
        assert _multiset(study.run().rows("Procedure")) == _multiset(preview)
