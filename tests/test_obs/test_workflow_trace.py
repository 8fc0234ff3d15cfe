"""Workflow and materialization tracing: RunReport.trace coverage."""

from __future__ import annotations

import pytest

from repro.analysis.studies import STUDY1_ELEMENTS, build_cohort_study
from repro.clinical import build_world
from repro.etl import compile_study
from repro.obs import tracing
from repro.relational import Database
from repro.warehouse import FullStrategy, MaterializationJob, Warehouse


@pytest.fixture(scope="module")
def small_world():
    return build_world(60, seed=5)


def run_traced(small_world):
    workflow = compile_study(
        build_cohort_study("obs", small_world, STUDY1_ELEMENTS), Database("wh")
    )
    with tracing() as tracer:
        outputs, report = workflow.run()
    return workflow, report, tracer


class TestWorkflowTrace:
    def test_step_spans_carry_rows_and_time(self, small_world):
        _, report, _ = run_traced(small_world)
        by_name = {
            s.name: s for s in report.trace.walk() if s.name.startswith("step:")
        }
        for run in report.steps:
            node_span = by_name[f"step:{run.step}"]
            assert node_span.attrs["rows_in"] == run.rows_in
            assert node_span.attrs["rows_out"] == run.rows_out
            assert node_span.attrs["stage"] == run.stage
            assert node_span.duration_s == pytest.approx(run.seconds)

    def test_serial_trace_covers_every_step(self, small_world):
        workflow, report, tracer = run_traced(small_world)
        assert report.trace is tracer.root
        assert report.trace.name == f"workflow:{workflow.name}"
        assert report.trace.attrs["steps"] == len(workflow)
        steps = [s.name for s in report.trace.children]
        assert steps == [f"step:{step.name}" for step in workflow.steps]

    def test_extract_steps_contain_their_reads(self):
        # A private world, so every read is a first (planned) read.
        workflow, report, _ = run_traced(build_world(60, seed=5))
        extracts = [
            s for s in report.trace.children if s.name.endswith("_extract")
        ]
        assert len(extracts) == len(
            [step for step in workflow.steps if step.stage == "extract"]
        )
        for step_span in extracts:
            # The read is the step's only child, and the read's own spans
            # (planning on a miss, execution) nest under it.
            (read,) = step_span.children
            assert read.name == "guava.read"
            assert read.attrs["result_memo"] == "miss"
            assert read.attrs["mapped_records"] == step_span.attrs["rows_out"]
            assert [s.name for s in read.children][0] == "optimize"
            assert any(s.name.startswith("execute:") for s in read.children)
            assert step_span.duration_s >= read.duration_s
            assert read.duration_s >= sum(s.duration_s for s in read.children)
        # Nothing a step opens escapes to the top level.
        assert not any(
            s.name == "guava.read" for s in report.trace.children
        )

    def test_untraced_run_has_no_trace(self, small_world):
        workflow = compile_study(
            build_cohort_study("obs_plain", small_world, STUDY1_ELEMENTS),
            Database("wh"),
        )
        _, report = workflow.run()
        assert report.trace is None
        assert "no trace" in report.render_trace()

    def test_render_trace_lists_steps(self, small_world):
        _, report, _ = run_traced(small_world)
        text = report.render_trace()
        for run in report.steps:
            assert f"step:{run.step}" in text


class TestMaterializeTrace:
    def _strategy(self, small_world):
        from repro.analysis.classifiers import vendor_classifiers_for
        from repro.analysis.schema import build_endoscopy_schema

        source = small_world.source("cori_warehouse_feed")
        vendor = vendor_classifiers_for(source)
        job = MaterializationJob(
            schema=build_endoscopy_schema(),
            entity="Procedure",
            sources=[source],
            entity_classifiers={source.name: vendor.entity_classifier},
            classifiers=[vendor.habits_cancer, vendor.ex_smoker_ever],
        )
        return FullStrategy(job, Warehouse("wh"))

    def test_full_build_and_incremental_decision(self, small_world):
        strategy = self._strategy(small_world)
        with tracing() as tracer:
            strategy.build()
            strategy.build(incremental=True)
        first, second = [
            s for s in tracer.roots if s.name == "materialize.build"
        ]
        assert first.attrs["decision"] == "full"
        assert first.attrs["rows_extracted"] > 0
        assert second.attrs["decision"] == "incremental"
        assert second.attrs["records_refreshed"] == 0

    def test_fallback_reason_is_recorded(self, small_world):
        strategy = self._strategy(small_world)
        with tracing() as tracer:
            strategy.build(incremental=True)  # nothing built yet
        (build_span,) = [
            s for s in tracer.roots if s.name == "materialize.build"
        ]
        assert build_span.attrs["decision"] == "full_fallback"
        assert build_span.attrs["fallback_reason"] == "no_lineage"
