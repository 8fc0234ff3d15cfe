"""One raw read per shape: mapped and record-scoped reads derived from it.

A g-tree shape's unmapped full read is kept once, in the result memo.  A
read through a row map keeps its mapped rows as an image on that raw read
(mapped in full on a miss, only the raw rows appended since on a patch),
and a record-scoped read picks its records' rows from the raw read when
it is current or a patch brings it forward.  The oracle shares none
of that: the translated plan run through ``interpret.py``, filtered to the
requested records and mapped, compared as a multiset (or as the same
raised error type).

Programs interleave session entries, tracked and untracked direct
inserts, updates and deletes, restores of a saved extent (which rewind
data versions), ``plan_cache_clear()``, record-id index builds, and full
and record-scoped reads, unmapped and under four row maps (one of which
raises on some records), under a memo bound small enough to clear the
memo.  Returned rows are shared and read-only (the list is the caller's):
every returned list is emptied before the next step, so a read that
handed out a kept list would lose rows, and every returned row is checked
at the end against a copy taken when it was handed out, so a step that
changed a handed-out (kept) row fails.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.clinical import generate_truths
from repro.clinical.cori import build_cori_chain, build_cori_tool, cori_procedure_values
from repro.errors import DomainError, ReproError
from repro.expr.ast import Identifier, InList, Literal
from repro.guava import GTreeQuery, GuavaSource, translate_query
from repro.guava.source import RowMap
from repro.obs import tracing
from repro.patterns import AuditPattern, GenericPattern, NaivePattern, PatternChain
from repro.relational.algebra import Select
from repro.relational.interpret import execute_interpreted
from repro.ui import ReportingTool
from repro.ui.form import RECORD_ID
from tests.conftest import build_fig2_form, by_column

TRUTHS = generate_truths(40, seed=17)

FIG2_RECORDS = (
    {"smoking": "Current", "frequency": 2.0, "hypoxia": True},
    {"smoking": "Never", "hypoxia": False},
    {"smoking": "Previous", "alcohol": "Light"},
    {"hypoxia": True, "alcohol": "Heavy"},
)


def _fig2(patterns):
    def build():
        tool = ReportingTool("shared", "1.0", forms=[build_fig2_form()])
        return tool, PatternChain(tool.naive_schemas(), patterns())

    return build


def _cori():
    tool = build_cori_tool()
    return tool, build_cori_chain(tool)


#: kind -> (build (tool, chain), the conditions read).
KINDS = {
    "naive": (_fig2(lambda: [NaivePattern()]), (None, "hypoxia = TRUE")),
    "audit": (_fig2(lambda: [AuditPattern()]), (None, "smoking = 'Never'")),
    "generic": (_fig2(lambda: [GenericPattern(["procedure"])]), (None,)),
    "cori": (_cori, (None, "transient_hypoxia = TRUE")),
}


def _filled(record: dict) -> dict:
    return {
        RECORD_ID: record[RECORD_ID],
        "filled": sum(value is not None for value in record.values()),
    }


def _echo(record: dict) -> dict:
    row = dict(record)
    row["mapped"] = True
    return row


def _anonymous(record: dict) -> dict:
    """Drops the record id: such rows are patched through the raw read."""
    return {"digest": repr(sorted(record.items()))}


def _raising(record: dict) -> dict:
    if record[RECORD_ID] % 6 == 5:
        raise DomainError(f"record {record[RECORD_ID]} is refused")
    return _filled(record)


MAPS = (
    None,
    RowMap("filled", _filled),
    RowMap("echo", _echo),
    RowMap("anonymous", _anonymous),
    RowMap("raising", _raising),
)


def _outcome(run) -> tuple:
    try:
        rows = run()
    except ReproError as error:
        return ("error", type(error).__name__)
    return ("rows", Counter(tuple(sorted(row.items())) for row in rows))


class _Harness:
    """One in-memory source under a random program."""

    def __init__(self, kind: str):
        self.kind = kind
        build, conditions = KINDS[kind]
        tool, chain = build()
        self.source = GuavaSource(kind, tool, chain)
        self.db = self.source.db
        self.session = self.source.session()
        self.entered = 0
        gtree = self.source.gtree("procedure")
        self.queries = [
            GTreeQuery(gtree) if c is None else GTreeQuery(gtree).where(c)
            for c in conditions
        ]
        self.saved = self._extents()
        #: id -> (every row handed out, a copy of it then).
        self.handed_out: dict[int, tuple[dict, dict]] = {}

    def _tables(self):
        return [
            self.db.table(name)
            for name, schema in sorted(self.source.chain.physical_schemas.items())
            if schema.has_column(RECORD_ID)
        ]

    def _extents(self):
        return [(table, table.rows(), table.version) for table in self._tables()]

    def enter(self, pick: int) -> None:
        if self.kind == "cori":
            values = cori_procedure_values(TRUTHS[pick % len(TRUTHS)])
        else:
            values = FIG2_RECORDS[pick % len(FIG2_RECORDS)]
        self.session.enter("procedure", values)
        self.entered += 1

    def direct(self, op: str, rid: int, pick: int, tracked: bool) -> None:
        source = self.source
        if tracked and source.data_version() != source.feed.accounted:
            # Registering this write would vouch for an untracked one
            # before it (a documented relaxation); account that one as
            # unknown first, as a session entry does.
            source.track_change(None)
        tables = self._tables()
        table = tables[pick % len(tables)]
        rows = table.rows()
        try:
            if op == "insert" and rows:
                table.insert(dict(rows[pick % len(rows)], record_id=rid))
                next_id = self.session._next_id
                for form in next_id:
                    next_id[form] = max(next_id[form], rid + 1)
            elif op == "update" and rows:
                columns = [c for c in table.schema.column_names if c != RECORD_ID]
                name = columns[pick % len(columns)]
                value = rows[pick % len(rows)][name]
                table.update(lambda row: row[RECORD_ID] == rid, {name: value})
            elif op == "delete":
                table.delete(lambda row: row[RECORD_ID] == rid)
        except ReproError:
            pass
        if tracked:
            source.track_change(rid, form="procedure")

    def restore(self) -> None:
        """Put back the saved extents at their saved data versions."""
        for table, rows, version in self.saved:
            table.restore_extent(by_column(table, rows))
            table.restore_counters(version)

    def index(self) -> None:
        for table in self._tables():
            table.create_index((RECORD_ID,))

    def read(self, which: int, mapping: int, ids: list[int] | None) -> None:
        query = self.queries[which % len(self.queries)]
        row_map = MAPS[mapping % len(MAPS)]
        handed: list[list] = []

        def run():
            rows = self.source.execute(query, record_ids=ids, row_map=row_map)
            handed.append(rows)
            return rows

        got = _outcome(run)
        expected = _oracle(self.source, query, ids, row_map)
        # A record-scoped plan filters below the conversion, so it skips a
        # value another record holds that does not convert; it is compared
        # where the whole read converts (a pick needs a current raw read).
        if ids is None or _oracle(self.source, query, None, None)[0] == "rows":
            assert got == expected
        for rows in handed:
            for row in rows:
                self.handed_out.setdefault(id(row), (row, dict(row)))
            rows.clear()  # the list is the caller's, never the memo's

    def assert_handed_out_rows_unchanged(self) -> None:
        for row, copy in self.handed_out.values():
            assert row == copy


def _oracle(source, query, ids, row_map) -> tuple:
    def run():
        rows = execute_interpreted(translate_query(query, source.chain), source.db)
        if ids is not None:
            wanted = set(ids)
            rows = [row for row in rows if row[RECORD_ID] in wanted]
        return rows if row_map is None else [row_map.apply(row) for row in rows]

    return _outcome(run)


reads = st.tuples(
    st.just("read"),
    st.tuples(st.integers(0, 1), st.integers(0, len(MAPS) - 1), st.none()),
)
scoped = st.tuples(
    st.just("read"),
    st.tuples(
        st.integers(0, 1),
        st.integers(0, len(MAPS) - 1),
        st.lists(st.integers(1, 14), max_size=4),
    ),
)
entries = st.tuples(st.just("enter"), st.integers(0, 39))
# Reads and entries are weighted up, so most reads patch or derive.
ops = st.one_of(
    reads,
    reads,
    reads,
    reads,
    scoped,
    scoped,
    entries,
    entries,
    entries,
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        st.tuples(st.integers(1, 14), st.integers(0, 40), st.booleans()),
    ),
    st.tuples(st.sampled_from(["save", "restore", "clear", "index"]), st.none()),
)


class TestDifferential:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        kind=st.sampled_from(sorted(KINDS)),
        seeded=st.integers(1, 6),
        limit=st.sampled_from([4, 512, 512]),
        program=st.lists(ops, min_size=4, max_size=30),
    )
    def test_every_read_equals_the_interpreted_oracle(
        self, kind, seeded, limit, program
    ):
        harness = _Harness(kind)
        harness.db.PLAN_CACHE_LIMIT = limit
        for index in range(seeded):
            harness.enter(index)
        harness.index()
        harness.read(0, 1, None)  # so most programs derive and patch
        for op, arg in program:
            if op == "read":
                harness.read(*arg)
            elif op == "enter":
                harness.enter(arg)
            elif op in ("insert", "update", "delete"):
                harness.direct(op, *arg)
            elif op == "save":
                harness.saved = harness._extents()
            elif op == "restore":
                harness.restore()
            elif op == "clear":
                harness.db.plan_cache_clear()
            else:
                harness.index()
        # Live rounds: the first map's read patches the raw read, the
        # others derive from it, and the scoped reads pick from it.
        for number in range(2):
            harness.enter(number)
            for mapping in (1, 2, 3, 4, 0):
                harness.read(0, mapping, None)
                harness.read(0, mapping, [1, 2, harness.entered])
        harness.assert_handed_out_rows_unchanged()


def _spans(tracer, name: str) -> list:
    return [span for root in tracer.roots for span in root.walk() if span.name == name]


def _naive(entries: int) -> _Harness:
    harness = _Harness("naive")
    for index in range(entries):
        harness.enter(index)
    harness.index()
    return harness


def _raw_entry(harness: _Harness) -> tuple:
    (entry,) = [
        entry for key, entry in harness.db._result_memo.items() if ":all:" in key
    ]
    return entry


class TestSharedRead:
    def test_maps_over_one_shape_read_the_chain_once_per_version(self):
        harness = _naive(4)
        query = harness.queries[0]
        maps = MAPS[1:4]
        for row_map in maps:
            harness.source.execute(query, row_map=row_map)
        for number in range(2):
            harness.enter(number)
            with tracing() as tracer:
                for row_map in maps:
                    harness.source.execute(query, row_map=row_map)
                harness.source.execute(query, record_ids=[5 + number])
            reads = _spans(tracer, "guava.read")
            assert [s.attrs["result_memo"] for s in reads] == ["delta"] * 3 + ["hit"]
            assert [s.attrs.get("raw_memo") for s in reads[:3]] == [
                "delta",
                "hit",
                "hit",
            ]
            assert [s.attrs["mapped_records"] for s in reads[:3]] == [1, 1, 1]
            assert reads[3].attrs["picked_records"] == 1
            # The raw read's patch is the round's only execution.
            executions = [
                span
                for root in tracer.roots
                for span in root.walk()
                if span.name.startswith("execute:")
            ]
            assert len(executions) == 1

    def test_a_map_that_raises_in_a_patch_stores_nothing(self):
        harness = _naive(4)
        query = harness.queries[0]
        row_map = MAPS[4]  # raises on record 5
        harness.source.execute(query, row_map=row_map)
        image = _raw_entry(harness)[2].maps["raising"]
        length = len(image[1])
        harness.enter(4)
        for _ in range(2):
            with tracing() as tracer:
                got = _outcome(lambda: harness.source.execute(query, row_map=row_map))
            assert got == ("error", "DomainError")
            (span,) = _spans(tracer, "guava.read")
            assert span.attrs["result_memo"] == "error"
            assert _raw_entry(harness)[2].maps == {"raising": image}
            assert len(image[1]) == length
        # The raw read was brought forward and serves other maps.
        assert _outcome(lambda: harness.source.execute(query)) == _oracle(
            harness.source, query, None, None
        )

    def test_a_correction_of_a_kept_record_reads_only_that_record(self):
        harness = _naive(4)
        query = harness.queries[0]
        harness.source.execute(query)
        stamp, kept, state = _raw_entry(harness)
        harness.direct("update", 2, 1, tracked=True)
        with tracing() as tracer:
            rows = harness.source.execute(query, record_ids=[2], row_map=MAPS[1])
        assert _outcome(lambda: rows) == _oracle(harness.source, query, [2], MAPS[1])
        # No span (not served from the raw read), one scoped execution,
        # and the raw read left as it was, not read again in full.
        assert _spans(tracer, "guava.read") == []
        (execution,) = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name.startswith("execute:")
        ]
        assert execution.attrs["rows_out"] == 1
        assert _raw_entry(harness) == (stamp, kept, state)

    def test_returned_rows_are_kept_rows_left_unchanged(self):
        harness = _naive(3)
        query = harness.queries[0]
        for row_map in (None, MAPS[1], MAPS[2]):
            for ids in (None, [1, 2]):
                first = harness.source.execute(query, record_ids=ids, row_map=row_map)
                copies = [dict(row) for row in first]
                handed = list(first)
                first.clear()  # the list is the caller's
                again = harness.source.execute(query, record_ids=ids, row_map=row_map)
                assert _outcome(lambda: again) == _oracle(
                    harness.source, query, ids, row_map
                )
                assert handed == copies
                if ids is None or row_map is None:
                    # A full read, or a pick of raw rows: the kept rows.
                    assert all(a is b for a, b in zip(handed, again))


class TestPinnedRelaxation:
    def test_a_scoped_read_skips_another_records_conversion_error(self):
        """DESIGN.md, "errors stay put": a ``Select`` sinks below a
        ``Coerce`` that can raise, so a record-scoped read converts only
        its own records' values, where the full read and the interpreted
        scoped read raise on another record's."""
        harness = _Harness("cori")
        for pick in range(4):
            harness.enter(pick)
        harness.index()
        query = harness.queries[0]
        wanted = [row for row in harness.source.execute(query) if row[RECORD_ID] != 4]
        # An untracked write: the kept raw read can no longer serve a pick.
        harness.db.table("cori_eav").update(
            lambda row: row[RECORD_ID] == 4 and row["attribute"] == "patient_age",
            {"value": "unknown"},
        )
        rows = harness.source.execute(query, record_ids=[1, 2, 3])
        assert _outcome(lambda: rows) == _outcome(lambda: wanted)
        assert _outcome(lambda: harness.source.execute(query)) == (
            "error",
            "TypeMismatchError",
        )
        membership = InList(
            Identifier.of(RECORD_ID), tuple(Literal(rid) for rid in (1, 2, 3))
        )
        scoped = Select(translate_query(query, harness.source.chain), membership)
        assert _outcome(lambda: execute_interpreted(scoped, harness.db)) == (
            "error",
            "TypeMismatchError",
        )
