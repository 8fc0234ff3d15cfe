"""Equivalence tests for the fused (batched) ETL engine.

The serial path (``Workflow.run()`` with default arguments) is the
oracle: every batch size — from one row per chunk to one chunk for the
whole input — must produce row-identical outputs, identical quarantine
contents, identical warehouse tables, and identical per-step row counts.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import build_study2
from repro.clinical import build_world
from repro.etl import compile_study
from repro.etl.components import DeriveColumn, Extract
from repro.etl.workflow import RunReport, StepRun, Workflow
from repro.multiclass import Classifier, CleaningRule, Rule
from repro.guava import GTreeQuery, GuavaSource, translate_query
from repro.patterns import NaivePattern, PatternChain
from repro.relational import Database, Scan, Vectorized, optimize
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form


@pytest.fixture(scope="module")
def small_world():
    """A private world: engine tests only read, so module scope is safe."""
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


def run_study(study, **kwargs):
    """Compile and run; returns (outputs, report, quarantine, warehouse)."""
    warehouse = Database("wh")
    workflow = compile_study(study, warehouse)
    outputs, report = workflow.run(**kwargs)
    return outputs, report, workflow.context["quarantine"], warehouse


def table_dump(db: Database) -> dict:
    return {name: db.table(name).rows() for name in db.table_names()}


ENGINE_CONFIGS = [
    {"batch_size": 64},
    {"batch_size": 7},
    {"batch_size": 100_000},
    {"batch_size": 32},
    {"batch_size": 1},
]


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def oracle(self, cleaned_study):
        return run_study(cleaned_study)

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_outputs_identical(self, cleaned_study, oracle, config):
        outputs, _, _, _ = run_study(cleaned_study, **config)
        assert outputs == oracle[0]

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_report_row_counts_identical(self, cleaned_study, oracle, config):
        _, report, _, _ = run_study(cleaned_study, **config)
        serial_counts = {r.step: (r.rows_in, r.rows_out) for r in oracle[1].steps}
        engine_counts = {r.step: (r.rows_in, r.rows_out) for r in report.steps}
        assert engine_counts == serial_counts

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_quarantine_identical(self, cleaned_study, oracle, config):
        _, _, quarantine, _ = run_study(cleaned_study, **config)
        assert quarantine.rows == oracle[2].rows

    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_warehouse_tables_identical(self, cleaned_study, oracle, config):
        _, _, _, warehouse = run_study(cleaned_study, **config)
        assert table_dump(warehouse) == table_dump(oracle[3])

    def test_step_order_in_report_matches_serial(self, cleaned_study, oracle):
        _, report, _, _ = run_study(cleaned_study, batch_size=16)
        assert [r.step for r in report.steps] == [r.step for r in oracle[1].steps]


class TestRunArguments:
    def test_default_is_serial(self, cleaned_study):
        outputs, report, _, _ = run_study(cleaned_study)
        assert outputs and report.steps

    def test_engine_units_run_on_the_calling_thread(
        self, cleaned_study, monkeypatch
    ):
        idents = []
        open_unit = Workflow._open_unit

        def recording(self, unit, *args):
            idents.append(threading.get_ident())
            return open_unit(self, unit, *args)

        monkeypatch.setattr(Workflow, "_open_unit", recording)
        outputs, _, _, _ = run_study(cleaned_study, batch_size=32)
        assert len(idents) == len(compile_study(cleaned_study, Database("u"))._fuse())
        assert set(idents) == {threading.get_ident()}


class TestReportSummary:
    def test_summary_has_seconds_column(self):
        report = RunReport(
            steps=[StepRun(step="s", stage="extract", rows_in=1, rows_out=2, seconds=0.5)]
        )
        lines = report.summary().splitlines()
        assert "seconds" in lines[0]
        assert "0.5000" in lines[1]

    def test_engine_reports_timings(self, cleaned_study):
        _, report, _, _ = run_study(cleaned_study, batch_size=32)
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
    """A bare whole-table extract optimizes to a zero-copy batch scan; the
    rows a workflow hands out or mutates must still be its own, on the
    first read, the one the result memo admits, and every memo hit."""

    @staticmethod
    def scanned_source():
        tool = ReportingTool("scan", "1.0", forms=[build_fig2_form()])
        chain = PatternChain(tool.naive_schemas(), [NaivePattern()])
        source = GuavaSource("src", tool, chain)
        source.db.insert(
            "procedure", [{"record_id": i, "other": "x"} for i in range(400)]
        )
        query = GTreeQuery(source.gtree("procedure"))
        assert optimize(translate_query(query, chain), source.db) == Vectorized(
            Scan("procedure")
        )
        return source, query

    @pytest.mark.parametrize("config", [{}] + ENGINE_CONFIGS)
    def test_downstream_steps_leave_the_table_alone(self, config):
        source, query = self.scanned_source()
        table = source.db.table("procedure")
        workflow = Workflow("scan")
        workflow.add("extract", Extract(source, query))
        workflow.add(
            "derive", DeriveColumn("other", "record_id + 1"), inputs=("extract",)
        )
        workflow.mark_output("derive")
        for _ in range(3):
            outputs, _ = workflow.run(**config)
            assert outputs["derive"][0]["other"] == 1
            assert table.snapshot_rows()[0]["other"] == "x"

    @pytest.mark.parametrize("config", [{}] + ENGINE_CONFIGS)
    def test_extract_output_is_independent(self, config):
        source, query = self.scanned_source()
        table = source.db.table("procedure")
        workflow = Workflow("scan")
        workflow.add("extract", Extract(source, query))
        workflow.mark_output("extract")
        for _ in range(3):
            outputs, _ = workflow.run(**config)
            assert outputs["extract"][0]["other"] == "x"
            outputs["extract"][0]["other"] = "changed"
            assert table.snapshot_rows()[0]["other"] == "x"
            assert table.rows()[0]["other"] == "x"
