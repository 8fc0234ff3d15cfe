"""The result memo's delta path: kept full reads patched from the change feed.

A kept full read whose data moved on only by records appended since is
brought forward by a record-scoped read of just those records
(``result_memo="delta"``).  Anything else reads in full.  The oracle here
is independent of the memo: after every read through the memo, the same
query is read again with the plan cache and the memo cleared (and both
restored afterwards), and the two must agree: as multisets of rows (a
full read's row order is unspecified, and a patch lists the changed
records last), or as the same raised error type.  Pure appends keep a
fresh read's order, and ``TestPatchedReads`` compares those as lists.  The end-to-end refresh-versus-rebuild check
reads through the delta path too, so it cannot be the oracle.

Programs interleave session entries for the read's form and for other
forms, soft deletes, direct inserts, updates and deletes (registered
with ``track_change``), anonymous ``track_change(None)`` calls, snapshot
and recover cycles, index create/drop and record-scoped reads (which
build the record-id indexes the delta path probes), under a change-feed
limit small enough that the feed is pruned.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import build_study2, vendor_classifiers_for
from repro.clinical import build_world, generate_truths
from repro.clinical.cori import build_cori_chain, build_cori_tool, cori_procedure_values
from repro.clinical.vendors import (
    build_endopro_chain,
    build_endopro_tool,
    build_medscribe_chain,
    build_medscribe_tool,
    endopro_values,
    medscribe_values,
)
from repro.errors import ReproError
from repro.guava import GTreeQuery, GuavaSource
from repro.obs import tracing
from repro.patterns import AuditPattern, GenericPattern, NaivePattern, PatternChain
from repro.storage import DurableStore
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form

TRUTHS = generate_truths(60, seed=5)

FIG2_RECORDS = (
    {"smoking": "Current", "frequency": 2.0, "hypoxia": True},
    {"smoking": "Never", "hypoxia": False},
    {"smoking": "Previous", "alcohol": "Light"},
    {"hypoxia": True, "alcohol": "Heavy"},
    {"smoking": "Never", "frequency": 1.0},
)


def _fig2(patterns):
    def build():
        tool = ReportingTool("delta", "1.0", forms=[build_fig2_form()])
        return tool, PatternChain(tool.naive_schemas(), patterns())

    return build


def _enter_cori_other(session, index: int) -> None:
    if index % 2:
        session.enter(
            "finding",
            {"procedure_id": index, "finding_type": "Polyp", "size_mm": 4.0},
        )
    else:
        session.enter(
            "medication",
            {"procedure_id": index, "drug": "Omeprazole", "dosage_mg": 40.0},
        )


#: kind -> (build (tool, chain), the form read).
KINDS = {
    "naive": (_fig2(lambda: [NaivePattern()]), "procedure"),
    "audit": (_fig2(lambda: [AuditPattern()]), "procedure"),
    "generic": (_fig2(lambda: [GenericPattern(["procedure"])]), "procedure"),
    "cori": (lambda: _vendor(build_cori_tool, build_cori_chain), "procedure"),
    "endopro": (
        lambda: _vendor(build_endopro_tool, build_endopro_chain),
        "endoscopy_report",
    ),
    "medscribe": (
        lambda: _vendor(build_medscribe_tool, build_medscribe_chain),
        "visit",
    ),
}

#: tool name -> (form read, its values from a truth).
VENDORS = {
    "cori": ("procedure", cori_procedure_values),
    "endopro": ("endoscopy_report", endopro_values),
    "medscribe": ("visit", medscribe_values),
}


def _vendor(build_tool, build_chain):
    tool = build_tool()
    return tool, build_chain(tool)


def _values(kind: str, index: int) -> dict:
    if kind in VENDORS:
        return VENDORS[kind][1](TRUTHS[index % len(TRUTHS)])
    return FIG2_RECORDS[index % len(FIG2_RECORDS)]


def _queries(kind: str, source: GuavaSource) -> list[GTreeQuery]:
    form = KINDS[kind][1]
    plain = GTreeQuery(source.gtree(form))
    if kind in VENDORS:
        entity = vendor_classifiers_for(source).entity_classifier
        return [plain, GTreeQuery(source.gtree(entity.form)).where(entity.condition)]
    return [
        plain,
        plain.where("hypoxia = TRUE"),
        plain.where("smoking = 'Never' AND frequency > 'abc'"),
    ]


def _outcome(run) -> object:
    try:
        return ("rows", run())
    except ReproError as error:
        return ("error", type(error).__name__)


def _multiset(rows: list[dict]) -> list[str]:
    """``rows`` as a multiset: each row's items by column, rows sorted.

    ``repr`` keeps ``TRUE``, ``1`` and ``1.0`` apart, as row equality
    under SQL semantics does.
    """
    return sorted(repr(sorted(row.items())) for row in rows)


def _unordered(outcome: object) -> object:
    kind, value = outcome
    return (kind, _multiset(value)) if kind == "rows" else outcome


def _fresh(source: GuavaSource, query: GTreeQuery) -> object:
    """A full read with no cached plan or kept rows (both restored after)."""
    db = source.db
    plans, memo = dict(db._plan_cache), dict(db._result_memo)
    db.plan_cache_clear()
    try:
        return _outcome(lambda: source.execute(query))
    finally:
        db._plan_cache.clear()
        db._plan_cache.update(plans)
        db._result_memo.clear()
        db._result_memo.update(memo)


class _Harness:
    """One durable source under a random program."""

    def __init__(self, kind: str, directory: Path):
        self.kind = kind
        self.form = KINDS[kind][1]
        self.directory = directory
        self.next_id: dict[str, int] = {}
        self.outcomes: list[str] = []
        self._open()

    def _open(self) -> None:
        self.store = DurableStore(self.directory, name=self.kind, fsync="never")
        tool, chain = KINDS[self.kind][0]()
        self.source = GuavaSource(self.kind, tool, chain, db=self.store.db)
        self.store.attach_source(self.source)
        self.session = self.source.session()
        self.session._next_id.update(self.next_id)
        self.queries = _queries(self.kind, self.source)

    def enter(self, index: int, other: bool = False) -> None:
        if other and self.kind == "cori":
            _enter_cori_other(self.session, index)
        else:
            self.session.enter(self.form, _values(self.kind, index))
        self.next_id = dict(self.session._next_id)

    def tables(self) -> list[str]:
        return sorted(
            name
            for name, schema in self.source.chain.physical_schemas.items()
            if schema.has_column("record_id")
        )

    def direct(self, op: str, rid: int, pick: int) -> None:
        names = self.tables()
        table = self.source.db.table(names[pick % len(names)])
        rows = table.rows()
        try:
            if op == "insert" and rows:
                table.insert(dict(rows[pick % len(rows)], record_id=rid))
                # The row takes its record id: later entries are numbered
                # past it, or they would collide with it on the primary key.
                next_id = self.session._next_id
                for form in next_id:
                    next_id[form] = max(next_id[form], rid + 1)
                self.next_id = dict(next_id)
            elif op == "update" and rows:
                column = [c for c in table.schema.column_names if c != "record_id"]
                name = column[pick % len(column)]
                value = rows[pick % len(rows)][name]
                table.update(lambda row: row["record_id"] == rid, {name: value})
            elif op == "delete":
                table.delete(lambda row: row["record_id"] == rid)
        except ReproError:
            pass
        self.source.track_change(rid, form=self.form)

    def index(self, create: bool, pick: int) -> None:
        columns = sorted(
            (name, column)
            for name, schema in self.source.chain.physical_schemas.items()
            for column in schema.column_names
        )
        name, column = columns[pick % len(columns)]
        table = self.source.db.table(name)
        if create:
            table.create_index((column,))
        else:
            table.drop_index((column,))

    def recover(self) -> None:
        self.store.snapshot()
        self.store.close()
        self._open()

    def read(self, which: int) -> tuple[object, object]:
        """Read through the memo, check it against a fresh read as a
        multiset, and return both outcomes."""
        query = self.queries[which % len(self.queries)]
        with tracing() as tracer:
            got = _outcome(lambda: self.source.execute(query))
        self.outcomes.extend(
            span.attrs["result_memo"]
            for root in tracer.roots
            for span in root.walk()
            if span.name == "guava.read"
        )
        fresh = _fresh(self.source, query)
        assert _unordered(got) == _unordered(fresh)
        return got, fresh

    def refresh(self, ids: list[int]) -> None:
        # The unconditioned query: a condition over converted values stays
        # above the record-id filter, which then reaches no base table.
        query = self.queries[0]
        _outcome(lambda: self.source.execute(query, record_ids=ids))


reads = st.tuples(st.just("read"), st.sampled_from([0, 0, 1, 1, 2]))
entries = st.tuples(st.just("enter"), st.integers(0, 59))
# Reads and entries are weighted up, so most programs patch kept rows.
ops = st.one_of(
    reads,
    reads,
    reads,
    entries,
    entries,
    entries,
    st.tuples(st.just("other"), st.integers(0, 59)),
    st.tuples(st.just("soft_delete"), st.integers(1, 12)),
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.tuples(st.integers(1, 16), st.integers(0, 50)),
    ),
    st.tuples(st.just("anonymous"), st.none()),
    st.tuples(st.just("recover"), st.none()),
    st.tuples(st.sampled_from(["index", "drop_index"]), st.integers(0, 50)),
    st.tuples(st.just("refresh"), st.lists(st.integers(1, 16), max_size=4)),
)


@contextmanager
def _small_feed(limit: int = 30):
    with mock.patch("repro.guava.source.CHANGE_LOG_LIMIT", limit):
        yield


class TestDifferential:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(sorted(KINDS)),
        seeded=st.integers(2, 6),
        program=st.lists(ops, min_size=6, max_size=30),
    )
    def test_a_read_through_the_memo_equals_a_fresh_read(
        self, kind, seeded, program
    ):
        with tempfile.TemporaryDirectory() as directory, _small_feed():
            harness = _Harness(kind, Path(directory))
            for index in range(seeded):
                harness.enter(index)
            # Reads and a refresh up front, so most programs patch kept rows.
            harness.refresh([1])
            harness.read(0)
            harness.read(0)
            for op, arg in program:
                if op == "read":
                    harness.read(arg)
                elif op in ("enter", "other"):
                    harness.enter(arg, other=op == "other")
                elif op == "soft_delete":
                    try:
                        harness.source.chain.soft_delete(
                            harness.source.db, harness.form, arg
                        )
                    finally:
                        harness.source.track_change(arg, form=harness.form)
                elif op in ("insert", "update", "delete"):
                    harness.direct(op, *arg)
                elif op == "anonymous":
                    harness.source.track_change(None)
                elif op == "recover":
                    harness.recover()
                elif op in ("index", "drop_index"):
                    harness.index(op == "index", arg)
                else:
                    harness.refresh(arg)
            harness.read(0)
            harness.store.close()


class TestPatchedReads:
    def test_every_vendor_chain_patches_new_entries(self):
        for kind in ("cori", "endopro", "medscribe", "naive", "audit", "generic"):
            with tempfile.TemporaryDirectory() as directory:
                harness = _Harness(kind, Path(directory))
                for index in range(4):
                    harness.enter(index)
                harness.refresh([1, 2])
                harness.read(0)
                harness.read(0)
                for index in range(4, 7):
                    harness.enter(index)
                    harness.enter(index, other=True)
                    got, fresh = harness.read(0)
                    # Pure appends: the patched rows keep a fresh read's order.
                    assert got == fresh, kind
                harness.store.close()
            assert harness.outcomes == ["miss", "hit"] + ["delta"] * 3, kind

    def test_an_update_of_a_read_record_reads_in_full(self):
        with tempfile.TemporaryDirectory() as directory:
            harness = _Harness("endopro", Path(directory))
            for index in range(4):
                harness.enter(index)
            harness.refresh([1])
            harness.read(0)
            harness.read(0)
            harness.direct("update", 2, 1)
            harness.read(0)
            harness.store.close()
        assert harness.outcomes == ["miss", "hit", "miss"]

    def test_a_record_read_before_that_now_qualifies_reads_as_a_delta(self):
        # Record 2 is filtered out by the condition, then updated so it
        # qualifies.  It is not in the kept rows, so the patch appends it
        # through the cached record-scoped plan: the read is a fresh read's
        # rows as a multiset, the changed record last.
        with tempfile.TemporaryDirectory() as directory:
            harness = _Harness("naive", Path(directory))
            for values in ({"hypoxia": True}, {"hypoxia": False}, {"hypoxia": True}):
                harness.session.enter("procedure", values)
            query = harness.queries[1]
            source = harness.source
            source.execute(query, record_ids=[1])  # caches the ids: plan
            for _ in range(2):
                source.execute(query)
            table = source.db.table("procedure")
            table.update(lambda row: row["record_id"] == 2, {"hypoxia": True})
            source.track_change(2, form="procedure")
            with tracing() as tracer:
                rows = source.execute(query)
            (span,) = _reads(tracer)
            assert span.attrs["result_memo"] == "delta"
            assert span.attrs["delta_records"] == 1
            assert [row["record_id"] for row in rows] == [1, 3, 2]
            kind, fresh = _fresh(source, query)
            assert kind == "rows" and _multiset(rows) == _multiset(fresh)
            harness.store.close()


def _next_id(source: GuavaSource) -> int:
    return 1 + max(
        (
            row["record_id"]
            for name, schema in source.chain.physical_schemas.items()
            if schema.has_column("record_id")
            for row in source.db.table(name).rows()
        ),
        default=0,
    )


def _enter(world, count: int) -> dict[str, int]:
    """``count`` entries spread over the sources; entries per source."""
    entered: dict[str, int] = {}
    for index, truth in enumerate(generate_truths(count, seed=23)):
        source = world.sources[index % len(world.sources)]
        form, values = VENDORS[source.tool.name]
        source.session(first_record_id=_next_id(source)).enter(form, values(truth))
        entered[source.name] = entered.get(source.name, 0) + 1
    return entered


def _reads(tracer) -> list:
    return [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.name == "guava.read"
    ]


class TestLiveRound:
    def test_a_traced_round_patches_each_source_by_its_entries(self):
        world = build_world(60, seed=11)
        for source in world.sources:
            ec = vendor_classifiers_for(source).entity_classifier
            query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
            source.execute(query, record_ids=[1])  # the refresh's indexes
        study = build_study2(world)
        study.run()
        study.run()
        entered = _enter(world, 20)
        with tracing() as tracer:
            study.run()
        spans = _reads(tracer)
        assert {s.attrs["source"]: s.attrs["result_memo"] for s in spans} == {
            source.name: "delta" for source in world.sources
        }
        assert {s.attrs["source"]: s.attrs["delta_records"] for s in spans} == entered

    def test_a_preview_builds_no_index_and_writes_no_wal(self):
        world = build_world(60, seed=13)
        with tempfile.TemporaryDirectory() as directory:
            stores = []
            for position, source in enumerate(list(world.sources)):
                store = DurableStore(
                    Path(directory) / source.name, name=source.name, fsync="never"
                )
                durable = GuavaSource(
                    source.name, source.tool, source.chain, db=store.db
                )
                for name in source.chain.physical_schemas:
                    durable.db.insert(name, source.db.table(name).rows())
                # The rows arrived behind the chain: deploying it again
                # loads the Lookup codes they hold.
                source.chain.deploy(durable.db)
                store.attach_source(durable)
                store.commit()
                stores.append(store)
                world.sources[position] = durable
            study = build_study2(world)
            study.run()
            study.run()
            _enter(world, 20)
            for store in stores:
                store.commit()

            def state():
                return [
                    (store.db.plan_epoch, store.last_lsn, _wal_bytes(store))
                    for store in stores
                ]

            before = state()
            with tracing() as tracer:
                study.run()
            assert state() == before
            # The EndoPro and MedScribe chains key their driving tables on
            # record_id, so their previews take the delta path.
            assert "delta" in [s.attrs["result_memo"] for s in _reads(tracer)]
            for store in stores:
                store.close()


def _wal_bytes(store: DurableStore) -> int:
    # The log's frames, not its files' sizes: appends that fit in the
    # zero-filled reserve leave those alone.
    return store.wal.appended_bytes
