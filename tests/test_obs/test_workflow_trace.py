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


def run_traced(small_world, **kwargs):
    workflow = compile_study(
        build_cohort_study("obs", small_world, STUDY1_ELEMENTS), Database("wh")
    )
    with tracing() as tracer:
        outputs, report = workflow.run(**kwargs)
    return workflow, report, tracer


class TestWorkflowTrace:
    def test_engine_trace_covers_every_step(self, small_world):
        workflow, report, tracer = run_traced(small_world, batch_size=64)
        assert report.trace is not None
        assert report.trace is tracer.root
        traced_steps = {
            s.name for s in report.trace.walk() if s.name.startswith("step:")
        }
        assert traced_steps == {f"step:{step.name}" for step in workflow.steps}

    def test_step_spans_carry_rows_and_time(self, small_world):
        _, report, _ = run_traced(small_world, batch_size=64)
        by_name = {
            s.name: s for s in report.trace.walk() if s.name.startswith("step:")
        }
        for run in report.steps:
            node_span = by_name[f"step:{run.step}"]
            assert node_span.attrs["rows_in"] == run.rows_in
            assert node_span.attrs["rows_out"] == run.rows_out
            assert node_span.duration_s == pytest.approx(run.seconds)

    def test_engine_trace_structure_and_gauges(self, small_world):
        _, report, _ = run_traced(small_world, batch_size=64)
        root = report.trace
        assert root.attrs["mode"] == "engine"
        assert root.attrs["batch_size"] == 64
        assert root.attrs["waves"] >= 1
        units = [s for s in root.walk() if s.name.startswith("unit:")]
        assert units and root.attrs["units"] == len(units)
        for unit in units:
            assert unit.attrs["queue_wait_ms"] >= 0.0
            assert unit.attrs["batches"] >= 1

    def test_serial_trace_covers_every_step(self, small_world):
        workflow, report, _ = run_traced(small_world)
        assert report.trace.attrs["mode"] == "serial"
        traced_steps = {
            s.name for s in report.trace.walk() if s.name.startswith("step:")
        }
        assert traced_steps == {f"step:{step.name}" for step in workflow.steps}

    def test_untraced_run_has_no_trace(self, small_world):
        workflow = compile_study(
            build_cohort_study("obs_plain", small_world, STUDY1_ELEMENTS),
            Database("wh"),
        )
        _, report = workflow.run(batch_size=64)
        assert report.trace is None
        assert "no trace" in report.render_trace()

    def test_render_trace_lists_steps(self, small_world):
        _, report, _ = run_traced(small_world, batch_size=32)
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
