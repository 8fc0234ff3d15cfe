"""Tests for the study -> ETL compiler (Figure 6 / Hypothesis 3)."""

import pytest

from repro.analysis import build_study1, build_study2
from repro.errors import CompileError
from repro.etl import compile_study
from repro.multiclass import Study
from repro.relational import Database


class TestFigure6Structure:
    def test_three_stages(self, world):
        workflow = compile_study(build_study1(world), Database("wh"))
        assert workflow.stages() == ["extract", "classify", "study"]

    def test_one_extract_per_source(self, world):
        workflow = compile_study(build_study1(world), Database("wh"))
        extracts = [s for s in workflow.steps if s.stage == "extract"]
        assert len(extracts) == len(world.sources)

    def test_one_classify_step_per_element_per_source(self, world):
        study = build_study1(world)
        workflow = compile_study(study, Database("wh"))
        classify_steps = [
            s for s in workflow.steps if "classify__" in s.name
        ]
        assert len(classify_steps) == len(study.elements) * len(world.sources)

    def test_union_filter_load_in_study_stage(self, world):
        workflow = compile_study(build_study1(world), Database("wh"))
        names = [s.name for s in workflow.steps if s.stage == "study"]
        assert "Procedure__union" in names
        assert "Procedure__load" in names


class TestEquivalence:
    """Hypothesis 3: compiled ETL output == direct study evaluation."""

    def _norm(self, rows):
        return sorted(
            rows, key=lambda r: (r["source"], r["record_id"])
        )

    @pytest.mark.parametrize("builder", [build_study1, build_study2])
    def test_etl_equals_direct(self, world, builder):
        study = builder(world)
        direct = study.run().rows("Procedure")
        warehouse = Database("wh")
        outputs, _ = compile_study(study, warehouse).run()
        assert self._norm(outputs["Procedure__load"]) == self._norm(direct)

    def test_warehouse_table_loaded(self, world):
        study = build_study1(world)
        warehouse = Database("wh")
        compile_study(study, warehouse).run()
        table_name = f"study_{study.name}_procedure"
        assert warehouse.has_table(table_name)
        assert len(warehouse.table(table_name)) == study.run().count("Procedure")

    def test_study_filter_compiled(self, world):
        from repro.analysis import build_cohort_study

        study = build_cohort_study(
            "filtered",
            world,
            [("TransientHypoxia", "flag")],
        )
        study.where("Procedure", "TransientHypoxia_flag = TRUE")
        direct = study.run().rows("Procedure")
        outputs, report = compile_study(study, Database("wh")).run()
        assert self._norm(outputs["Procedure__load"]) == self._norm(direct)
        assert report.rows_out("Procedure__filter") == len(direct)

    def test_rerun_is_idempotent(self, world):
        study = build_study1(world)
        warehouse = Database("wh")
        workflow = compile_study(study, warehouse)
        workflow.run()
        first = warehouse.table(f"study_{study.name}_procedure").rows()
        workflow.run()
        second = warehouse.table(f"study_{study.name}_procedure").rows()
        assert first == second


class TestCompileErrors:
    def test_no_bindings(self, world):
        from repro.analysis import build_endoscopy_schema

        study = Study("empty", build_endoscopy_schema())
        with pytest.raises(CompileError):
            compile_study(study, Database("wh"))

    def test_no_elements(self, world):
        from repro.analysis import build_endoscopy_schema
        from repro.analysis.classifiers import vendor_classifiers_for

        study = Study("no_elements", build_endoscopy_schema())
        vendor = vendor_classifiers_for(world.sources[0])
        study.bind(world.sources[0], [vendor.entity_classifier], [])
        with pytest.raises(CompileError):
            compile_study(study, Database("wh"))

    def test_missing_classifier_fails_whatever_the_data(self, world):
        """A selected element with no bound classifier is an error in both
        the compiler and the direct run, even when no record qualifies."""
        from repro.analysis import build_endoscopy_schema
        from repro.analysis.classifiers import vendor_classifiers_for
        from repro.errors import StudyError
        from repro.multiclass import EntityClassifier

        source = world.sources[0]
        form = vendor_classifiers_for(source).entity_classifier.form
        study = Study("unclassified", build_endoscopy_schema())
        study.add_element("Procedure", "TransientHypoxia", "flag")
        nothing = EntityClassifier("none", "Procedure", form, condition="FALSE")
        study.bind(source, [nothing], [])
        with pytest.raises(CompileError):
            compile_study(study, Database("wh"))
        with pytest.raises(StudyError, match="no classifier"):
            study.run()


class TestSharedPlanCache:
    def test_publish_reuses_the_preview_plans(self, world):
        """After a preview, every extract of the serial publish is a
        plan-cache hit: ETL and ``Study.run`` read through one plan."""
        from repro.obs import tracing

        study = build_study2(world)
        study.run()
        with tracing() as tracer:
            compile_study(study, Database("wh")).run()
        spans = [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name == "optimize"
        ]
        assert len(spans) >= len(world.sources)
        assert {span.attrs.get("plan_cache") for span in spans} == {"hit"}
        assert not any(
            key.startswith("rewrite.") for span in spans for key in span.attrs
        )
