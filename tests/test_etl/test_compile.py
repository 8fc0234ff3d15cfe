"""Tests for the study -> ETL compiler (Figure 6 / Hypothesis 3)."""

import pytest

from repro.analysis import build_study1, build_study2
from repro.errors import CompileError
from repro.etl import Extract, compile_study
from repro.multiclass import Study
from repro.relational import Database


class TestFigure6Structure:
    def test_extract_then_study_stages(self, world):
        """Figure 6's extract and classify stages are one read each."""
        workflow = compile_study(build_study1(world), Database("wh"))
        assert workflow.stages() == ["extract", "study"]

    def test_one_extract_per_source(self, world):
        workflow = compile_study(build_study1(world), Database("wh"))
        extracts = [s for s in workflow.steps if s.stage == "extract"]
        assert len(extracts) == len(world.sources)

    def test_each_branch_is_one_output_shaped_extract(self, world):
        study = build_study1(world)
        workflow = compile_study(study, Database("wh"))
        union = workflow.step("Procedure__union")
        assert [workflow.step(name).stage for name in union.inputs] == [
            "extract"
        ] * len(world.sources)
        assert {s.name for s in workflow.steps if s.stage == "extract"} == set(
            union.inputs
        )
        columns = study.output_columns("Procedure")
        for name in union.inputs:
            extract = workflow.step(name).component
            assert isinstance(extract, Extract) and extract.row_map is not None
            rows = extract.run([])
            assert rows and all(tuple(row) == columns for row in rows)

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

    def test_a_bad_entity_query_fails_at_compile_time(self):
        """Extracts translate on their first read, but building their
        g-tree query still rejects an unknown node when the study
        compiles, before any workflow runs."""
        from repro.analysis import build_study2
        from repro.clinical import build_world
        from repro.errors import GuavaError
        from repro.multiclass import EntityClassifier

        world = build_world(20, seed=3)
        study = build_study2(world)
        binding = study.bindings[0]
        (entity,) = binding.entity_classifiers
        form = binding.entity_classifiers[entity].form
        binding.entity_classifiers[entity] = EntityClassifier(
            "bad", entity, form, condition="no_such_node = 1"
        )
        with pytest.raises(GuavaError, match="unknown g-tree node"):
            compile_study(study, Database("wh"))


class TestSharedPlanCache:
    def test_publish_reuses_the_preview_plans(self):
        """A serial publish reads through the preview's plans and rows: a
        publish of the previewed study is served by the result memo (no
        planning at all), and one of another definition over the same
        entity queries re-reads through the preview's plans (plan-cache
        hits only, no rewrites)."""
        from repro.clinical import build_world
        from repro.obs import tracing

        world = build_world(40, seed=3)
        study = build_study2(world)
        with tracing() as tracer:
            study.run()
        assert _reads(tracer) == ["miss"] * len(world.sources)
        for _ in range(2):
            with tracing() as tracer:
                compile_study(study, Database("wh")).run()
            assert _reads(tracer) == ["hit"] * len(world.sources)
            assert _spans(tracer, "optimize") == []
        with tracing() as tracer:
            compile_study(build_study2(world, "1y"), Database("wh")).run()
        assert _reads(tracer) == ["miss"] * len(world.sources)
        spans = _spans(tracer, "optimize")
        assert len(spans) == len(world.sources)
        assert {span.attrs.get("plan_cache") for span in spans} == {"hit"}
        assert not any(
            key.startswith("rewrite.") for span in spans for key in span.attrs
        )


def _spans(tracer, name):
    return [
        span for root in tracer.roots for span in root.walk() if span.name == name
    ]


def _reads(tracer):
    return [span.attrs["result_memo"] for span in _spans(tracer, "guava.read")]
