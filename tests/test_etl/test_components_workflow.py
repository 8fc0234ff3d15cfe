"""Tests for ETL components and the workflow executor."""

import pytest

from repro.errors import ETLError, WorkflowError
from repro.etl import (
    AddConstant,
    DeriveColumn,
    Extract,
    FilterRows,
    Load,
    ProjectColumns,
    UnionInputs,
    Values,
    Workflow,
)
from repro.guava import GTreeQuery, translate_query
from repro.relational import Database, DataType, TableSchema
from repro.relational.interpret import execute_interpreted
from tests.conftest import enter_fig2_records

ROWS = [
    {"id": 1, "packs": 0.0},
    {"id": 2, "packs": 3.0},
    {"id": 3, "packs": None},
]


class TestComponents:
    def test_values(self):
        assert Values(ROWS).run([]) == ROWS

    def test_extract_runs_plan(self, naive_source):
        enter_fig2_records(naive_source)
        query = GTreeQuery(naive_source.gtree("procedure")).where("hypoxia = TRUE")
        rows = Extract(naive_source, query).run([])
        assert [row["record_id"] for row in rows] == [1, 3]
        assert rows == execute_interpreted(
            translate_query(query, naive_source.chain), naive_source.db
        )

    def test_filter(self):
        out = FilterRows("packs > 1").run([ROWS])
        assert [r["id"] for r in out] == [2]

    def test_filter_null_drops(self):
        out = FilterRows("packs >= 0").run([ROWS])
        assert all(r["id"] != 3 for r in out)

    def test_derive(self):
        out = DeriveColumn("cigs", "packs * 20").run([ROWS])
        assert out[1]["cigs"] == 60.0

    def test_project(self):
        out = ProjectColumns(("id", "missing")).run([ROWS])
        assert out[0] == {"id": 1, "missing": None}

    def test_add_constant(self):
        out = AddConstant("source", "clinic_a").run([ROWS])
        assert all(r["source"] == "clinic_a" for r in out)

    def test_union(self):
        out = UnionInputs().run([ROWS, ROWS])
        assert len(out) == 6

    def test_union_needs_input(self):
        with pytest.raises(ETLError):
            UnionInputs().run([])

    def test_load_creates_and_fills_table(self):
        db = Database("wh")
        schema = TableSchema.build(
            "out", [("id", DataType.INTEGER), ("packs", DataType.FLOAT)]
        )
        Load(db, schema).run([ROWS])
        assert len(db.table("out")) == 3

    def test_load_replaces_by_default(self):
        db = Database("wh")
        schema = TableSchema.build("out", [("id", DataType.INTEGER)])
        Load(db, schema).run([[{"id": 1}]])
        Load(db, schema).run([[{"id": 2}]])
        assert [r["id"] for r in db.table("out").rows()] == [2]

    def test_arity_checked(self):
        with pytest.raises(ETLError):
            FilterRows("TRUE").run([ROWS, ROWS])


class TestWorkflow:
    def build(self) -> Workflow:
        workflow = Workflow("wf")
        workflow.add("src", Values(ROWS), stage="extract")
        workflow.add("filtered", FilterRows("packs IS NOT NULL"), ("src",), stage="study")
        workflow.mark_output("filtered")
        return workflow

    def test_runs_in_order(self):
        outputs, report = self.build().run()
        assert len(outputs["filtered"]) == 2
        assert [s.step for s in report.steps] == ["src", "filtered"]

    def test_report_row_counts(self):
        _, report = self.build().run()
        assert report.rows_out("src") == 3
        assert report.rows_out("filtered") == 2

    def test_unknown_dependency_rejected(self):
        workflow = Workflow("wf")
        with pytest.raises(WorkflowError):
            workflow.add("a", Values([]), ("ghost",))

    def test_duplicate_step_rejected(self):
        workflow = Workflow("wf")
        workflow.add("a", Values([]))
        with pytest.raises(WorkflowError):
            workflow.add("a", Values([]))

    def test_mark_output_unknown_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow("wf").mark_output("nope")

    def test_stages_in_order(self):
        assert self.build().stages() == ["extract", "study"]

    def test_no_outputs_returns_everything(self):
        workflow = Workflow("wf")
        workflow.add("a", Values(ROWS))
        outputs, _ = workflow.run()
        assert "a" in outputs

    def test_report_summary_renders(self):
        _, report = self.build().run()
        assert "src" in report.summary()

