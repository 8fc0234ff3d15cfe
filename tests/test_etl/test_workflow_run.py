"""The serial workflow walk: run reports, the classify memo, and the
aliasing contract of the rows a run hands out (``etl/components.py``).
"""

from __future__ import annotations

import pytest

from repro.analysis import build_study2
from repro.clinical import build_world
from repro.etl import compile_study
from repro.etl.components import DeriveColumn, Extract, Load, UnionInputs
from repro.etl.workflow import RunReport, StepRun, Workflow
from repro.multiclass import Classifier, CleaningRule, Rule
from repro.guava import GTreeQuery, GuavaSource, translate_query
from repro.patterns import NaivePattern, PatternChain
from repro.relational import (
    Column,
    DataType,
    Database,
    Scan,
    TableSchema,
    optimize,
)
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form


@pytest.fixture(scope="module")
def small_world():
    """A private world: these tests only read, so module scope is safe."""
    return build_world(60, seed=5)


@pytest.fixture(scope="module")
def cleaned_study(small_world):
    study = build_study2(small_world, "ever")
    for rule_source, condition in (
        ("cori_warehouse_feed", "packs_per_day >= 3"),
        ("endopro_clinic", "cigarettes_per_day >= 60"),
        ("medscribe_clinic", "packs_daily >= 3"),
    ):
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of(
                f"heavy_{rule_source.split('_')[0]}",
                condition,
                reason="protocol excludes very heavy smokers",
                source=rule_source,
            ),
        )
    study.add_cleaning_rule(
        "Procedure",
        CleaningRule.of(
            "unclassified_smoking",
            "ExSmoker_flag IS NULL",
            reason="smoking question unanswered",
            scope="study",
        ),
    )
    return study


def run_study(study):
    """Compile and run; returns (outputs, report, quarantine, warehouse)."""
    warehouse = Database("wh")
    workflow = compile_study(study, warehouse)
    outputs, report = workflow.run()
    return outputs, report, workflow.context["quarantine"], warehouse


class TestReportSummary:
    def test_summary_has_seconds_column(self):
        report = RunReport(
            steps=[StepRun(step="s", stage="extract", rows_in=1, rows_out=2, seconds=0.5)]
        )
        lines = report.summary().splitlines()
        assert "seconds" in lines[0]
        assert "0.5000" in lines[1]

    def test_run_reports_timings(self, cleaned_study):
        _, report, _, _ = run_study(cleaned_study)
        assert all(run.seconds >= 0 for run in report.steps)
        assert any(run.seconds > 0 for run in report.steps)


class TestClassifyMemo:
    """The compiled classifier's memo keys on value *and* type."""

    def test_true_one_and_float_one_classify_apart(self):
        classifier = Classifier(
            "typed",
            "Procedure",
            "Answer",
            "text",
            rules=[Rule.of("'yes'", "x = 1"), Rule.of("'other'", "TRUE")],
        )
        rows = [{"x": True}, {"x": 1}, {"x": 1.0}, {"x": True}]
        reference = [classifier.explain(row)[0] for row in rows]
        assert reference == ["other", "yes", "yes", "other"]
        classify = classifier.compile()
        assert [classify(row) for row in rows] == reference


class TestExtractRowsAreFresh:
    """A bare whole-table extract optimizes to a plain scan, which streams
    the table's own row dicts; the rows a workflow hands out or mutates
    must still be its own, on the first read (whose copy the result memo
    keeps) and every memo hit.  Steps
    share rows without copying them, so an output that passes the extract's
    rows on (a union, a load) is the caller's own too."""

    @staticmethod
    def scanned_source():
        tool = ReportingTool("scan", "1.0", forms=[build_fig2_form()])
        chain = PatternChain(tool.naive_schemas(), [NaivePattern()])
        source = GuavaSource("src", tool, chain)
        source.db.insert(
            "procedure", [{"record_id": i, "other": "x"} for i in range(400)]
        )
        query = GTreeQuery(source.gtree("procedure"))
        assert optimize(translate_query(query, chain), source.db) == Scan("procedure")
        return source, query

    def test_downstream_steps_leave_the_table_alone(self):
        source, query = self.scanned_source()
        table = source.db.table("procedure")
        workflow = Workflow("scan")
        workflow.add("extract", Extract(source, query))
        workflow.add(
            "derive", DeriveColumn("other", "record_id + 1"), inputs=("extract",)
        )
        workflow.mark_output("derive")
        for _ in range(3):
            outputs, _ = workflow.run()
            assert outputs["derive"][0]["other"] == 1
            assert next(table.iter_rows())["other"] == "x"

    def test_extract_output_is_independent(self):
        source, query = self.scanned_source()
        table = source.db.table("procedure")
        workflow = Workflow("scan")
        workflow.add("extract", Extract(source, query))
        workflow.mark_output("extract")
        for _ in range(3):
            outputs, _ = workflow.run()
            assert outputs["extract"][0]["other"] == "x"
            outputs["extract"][0]["other"] = "changed"
            assert next(table.iter_rows())["other"] == "x"
            assert table.rows()[0]["other"] == "x"

    def test_published_union_leaves_the_warehouse_and_memo_alone(self):
        source, query = self.scanned_source()
        warehouse = Database("wh")
        schema = TableSchema(
            "published",
            (Column("record_id", DataType.INTEGER), Column("other", DataType.TEXT)),
        )
        workflow = Workflow("publish")
        workflow.add("left", Extract(source, query))
        workflow.add("right", Extract(source, query))
        workflow.add("union", UnionInputs(), inputs=("left", "right"))
        workflow.add("load", Load(warehouse, schema), inputs=("union",))
        workflow.mark_output("load")
        for _ in range(3):  # the first read, then memo hits
            outputs, _ = workflow.run()
            published = outputs["load"]
            assert len(published) == 800
            for row in published:
                row["other"] = "changed"
            loaded = warehouse.table("published").rows()
            assert {row["other"] for row in loaded} == {"x"}
            fresh = source.execute(query)
            assert {row["other"] for row in fresh} == {"x"}
        assert source.db.table("procedure").rows()[0]["other"] == "x"
