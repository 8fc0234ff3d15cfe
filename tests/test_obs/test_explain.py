"""explain_analyze: profiled row counts must match real executor output."""

from __future__ import annotations

import pytest

from repro.obs import enabled, explain_analyze
from repro.relational.database import Database
from repro.relational.algebra import Scan, Sort
from repro.relational.query import Query
from repro.relational.schema import TableSchema
from repro.relational.types import DataType


@pytest.fixture()
def db() -> Database:
    db = Database("explain")
    db.create_table(
        TableSchema.build(
            "patients",
            [
                ("patient_id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("city", DataType.TEXT),
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
    db.insert(
        "patients",
        [
            {"patient_id": i, "age": 20 + i % 50, "city": "nice" if i % 3 else "metz"}
            for i in range(90)
        ],
    )
    db.insert(
        "visits",
        [
            {"visit_id": i, "patient_id": i % 90, "score": i % 7}
            for i in range(180)
        ],
    )
    db.table("patients").create_index(("city",))
    return db


def queries(db: Database) -> list[Query]:
    """Three representative shapes: indexed filter, join, filtered sort."""
    return [
        Query.table("patients").where("city = 'metz' and age > 30").select(
            "patient_id", "age"
        ),
        Query.table("patients")
        .join(Query.table("visits"), on=[("patient_id", "patient_id")])
        .where("score >= 3")
        .select("patient_id", "score"),
        Query(Sort(Scan("patients"), (("age", False),))).where("age > 60"),
    ]


class TestExplainAnalyze:
    def test_root_rows_match_execute(self, db):
        for query in queries(db):
            report = explain_analyze(query, db)
            assert report.rows == query.execute(db)
            assert report.execute_span.attrs["rows_out"] == len(report.rows)

    def test_every_node_rows_match_subplan_execution(self, db):
        for query in queries(db):
            report = explain_analyze(query, db)
            pairs = report.node_spans()
            assert pairs, "span tree must mirror the plan tree"
            assert len(pairs) == sum(1 for _ in _walk(report.plan))
            for node, node_span in pairs:
                assert node_span.attrs["rows_out"] == len(node.execute(db)), (
                    f"{node_span.name} disagrees with real execution"
                )

    def test_every_node_has_wall_time(self, db):
        report = explain_analyze(queries(db)[1], db)
        for _, node_span in report.node_spans():
            assert node_span.duration_s >= 0.0

    def test_optimizer_span_records_rewrites(self, db):
        report = explain_analyze(queries(db)[2], db)
        assert report.rewrites_applied().get("select_below_sort") == 1
        indexed = explain_analyze(queries(db)[0], db)
        assert indexed.rewrites_applied().get("index_lowering") == 1
        assert any(
            event["event"] == "index_lowering"
            for event in indexed.optimize_span.events
        )

    def test_index_access_path_is_annotated(self, db):
        report = explain_analyze(queries(db)[0], db)
        lookup = next(
            s for _, s in report.node_spans() if s.name.startswith("InLookup")
        )
        assert lookup.attrs["access_path"] == "index"
        assert lookup.attrs["bucket_rows"] >= lookup.attrs["rows_out"]

    def test_unoptimized_report_skips_optimizer(self, db):
        query = queries(db)[0]
        report = explain_analyze(query, db, optimized=False)
        assert report.optimize_span is None
        assert report.rows == query.execute(db, optimized=False)

    def test_render_is_complete(self, db):
        report = explain_analyze(queries(db)[0], db)
        text = report.render()
        assert text.startswith(f"rows: {len(report.rows)}")
        for _, node_span in report.node_spans():
            assert node_span.name in text

    def test_leaves_tracing_disabled(self, db):
        explain_analyze(queries(db)[0], db)
        assert not enabled()

    def test_plain_execute_records_nothing(self, db):
        # The no-op guarantee: outside tracing() the executor and the
        # optimizer must not build spans at all.
        for query in queries(db):
            assert query.execute(db) is not None
        assert not enabled()


def _walk(plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


class TestEavExtractTrace:
    """A CORI extract (Generic/EAV pattern) is profiled operator by
    operator: no fast path skips the spans."""

    def test_pivot_and_coerce_spans_are_traced(self):
        from repro.clinical.sources import build_world
        from repro.guava.query import GTreeQuery
        from repro.guava.translate import translate_query
        from repro.relational.algebra import Coerce, Pivot
        from repro.relational.interpret import execute_interpreted

        source = build_world(300, seed=7).source("cori_warehouse_feed")
        plan = translate_query(GTreeQuery(source.gtree("procedure")), source.chain)
        report = explain_analyze(plan, source.db)
        assert report.rows == execute_interpreted(plan, source.db)
        spans = {type(node): span for node, span in report.node_spans()}
        assert Pivot in spans and Coerce in spans
        for kind in (Pivot, Coerce):
            attrs = spans[kind].attrs
            assert attrs["rows_out"] == len(report.rows) > 0

    def test_study_read_after_a_refresh_probes_its_index(self):
        """A record-scoped refresh builds the EAV table's ``record_id``
        index, and only that one; a record-scoped read then probes it, and
        Pivot and Coerce report the rows they pass on."""
        from repro.analysis.classifiers import vendor_classifiers_for
        from repro.clinical.sources import build_world
        from repro.expr.ast import Identifier, InList, Literal
        from repro.guava.query import GTreeQuery
        from repro.guava.translate import translate_query
        from repro.relational.algebra import Coerce, InLookup, Pivot, Select
        from repro.relational.interpret import execute_interpreted

        source = build_world(300, seed=7).source("cori_warehouse_feed")
        entity = vendor_classifiers_for(source).entity_classifier
        query = GTreeQuery(source.gtree(entity.form)).where(entity.condition)
        refreshed = source.execute(query, record_ids=[1, 2, 3])
        assert sorted(row["record_id"] for row in refreshed) == [1, 2, 3]
        eav = source.db.table("cori_eav")
        assert eav.secondary_index_columns() == [("record_id",)]

        ids = InList(Identifier.of("record_id"), tuple(Literal(i) for i in (4, 5)))
        plan = Select(translate_query(query, source.chain), ids)
        report = explain_analyze(plan, source.db)
        assert report.rows == execute_interpreted(plan, source.db)
        nodes = {type(node): node for node, _ in report.node_spans()}
        assert nodes[InLookup].column == "record_id"
        spans = {type(node): span for node, span in report.node_spans()}
        for kind in (Pivot, Coerce):
            attrs = spans[kind].attrs
            assert attrs["rows_out"] == len(
                execute_interpreted(nodes[kind], source.db)
            ) >= len(report.rows) > 0
