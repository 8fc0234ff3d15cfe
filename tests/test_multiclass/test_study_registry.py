"""Tests for studies, study execution, and the registry."""

import pytest

from repro.errors import MultiClassError, StudyError
from repro.etl.compile import study_table_schema
from repro.guava import GuavaSource
from repro.multiclass import (
    Classifier,
    Domain,
    Entity,
    EntityClassifier,
    Registry,
    Rule,
    Study,
    StudySchema,
)
from repro.patterns import GenericPattern, NaivePattern, PatternChain
from tests.conftest import build_fig2_form, enter_fig2_records
from repro.ui import ReportingTool


def schema() -> StudySchema:
    procedure = Entity("Procedure")
    procedure.add_attribute(
        "Smoking", Domain.categorical("status3", ["None", "Current", "Previous"])
    )
    procedure.add_attribute("Hypoxia", Domain.boolean("flag"))
    return StudySchema("endoscopy", procedure)


def status_classifier() -> Classifier:
    return Classifier(
        name="status_from_fig2",
        target_entity="Procedure",
        target_attribute="Smoking",
        target_domain="status3",
        rules=[
            Rule.of("'None'", "smoking = 'Never'"),
            Rule.of("'Current'", "smoking = 'Current'"),
            Rule.of("'Previous'", "smoking = 'Previous'"),
        ],
    )


def hypoxia_classifier() -> Classifier:
    return Classifier(
        name="hypoxia_from_fig2",
        target_entity="Procedure",
        target_attribute="Hypoxia",
        target_domain="flag",
        rules=[Rule.of("hypoxia", "hypoxia IS NOT NULL")],
    )


def all_procedures() -> EntityClassifier:
    return EntityClassifier(
        name="all_procedures", target_entity="Procedure", form="procedure"
    )


def make_source(name: str, generic: bool) -> GuavaSource:
    tool = ReportingTool(name + "_tool", "1.0", forms=[build_fig2_form()])
    patterns = [GenericPattern(["procedure"])] if generic else [NaivePattern()]
    source = GuavaSource(name, tool, PatternChain(tool.naive_schemas(), patterns))
    enter_fig2_records(source)
    return source


class TestStudyDefinition:
    def test_add_element_validates(self):
        study = Study("s", schema())
        with pytest.raises(Exception):
            study.add_element("Procedure", "Smoking", "nope")

    def test_duplicate_element_rejected(self):
        study = Study("s", schema())
        study.add_element("Procedure", "Smoking", "status3")
        with pytest.raises(StudyError):
            study.add_element("Procedure", "Smoking", "status3")

    def test_bind_validates_classifier_targets(self):
        study = Study("s", schema())
        study.add_element("Procedure", "Smoking", "status3")
        source = make_source("a", generic=False)
        ghost = Classifier(
            name="ghost",
            target_entity="Procedure",
            target_attribute="Smoking",
            target_domain="status3",
            rules=[Rule.of("'None'", "no_such_node = 1")],
        )
        with pytest.raises(StudyError):
            study.bind(source, [all_procedures()], [ghost])

    def test_bind_requires_entity_classifier_for_targets(self):
        study = Study("s", schema())
        source = make_source("a", generic=False)
        with pytest.raises(StudyError):
            study.bind(source, [], [status_classifier()])

    def test_run_needs_bindings_and_elements(self):
        study = Study("s", schema())
        with pytest.raises(StudyError):
            study.run()


class TestStudyExecution:
    def build_study(self) -> Study:
        study = Study("smoking_study", schema())
        study.add_element("Procedure", "Smoking", "status3")
        study.add_element("Procedure", "Hypoxia", "flag")
        for name, generic in (("clinic_a", False), ("clinic_b", True)):
            study.bind(
                make_source(name, generic),
                [all_procedures()],
                [status_classifier(), hypoxia_classifier()],
            )
        return study

    def test_union_across_sources(self):
        result = self.build_study().run()
        assert result.count("Procedure") == 6  # 3 records in each source

    def test_columns_and_values(self):
        result = self.build_study().run()
        row = next(
            r
            for r in result.rows("Procedure")
            if r["source"] == "clinic_a" and r["record_id"] == 1
        )
        assert row["Smoking_status3"] == "Current"
        assert row["Hypoxia_flag"] is True

    def test_filter_applies_after_union(self):
        study = self.build_study()
        study.where("Procedure", "Smoking_status3 = 'Previous'")
        result = study.run()
        assert result.count("Procedure") == 2
        assert all(
            r["Smoking_status3"] == "Previous" for r in result.rows("Procedure")
        )

    def test_filters_accumulate(self):
        study = self.build_study()
        study.where("Procedure", "Hypoxia_flag = TRUE")
        study.where("Procedure", "source = 'clinic_a'")
        assert study.run().count("Procedure") == 2

    def test_entity_classifier_condition(self):
        study = Study("surgical", schema())
        study.add_element("Procedure", "Smoking", "status3")
        relevant = EntityClassifier(
            name="relevant",
            target_entity="Procedure",
            form="procedure",
            condition="surgeon_consulted = TRUE",
        )
        study.bind(make_source("a", False), [relevant], [status_classifier()])
        result = study.run()
        assert result.count("Procedure") == 1
        assert result.rows("Procedure")[0]["Smoking_status3"] == "Previous"

    def test_output_columns(self):
        study = self.build_study()
        assert study_table_schema(study, "Procedure").column_names == (
            "record_id",
            "source",
            "Smoking_status3",
            "Hypoxia_flag",
        )


class TestRegistry:
    def test_register_and_lookup(self):
        registry = Registry()
        registry.add_schema(schema())
        registry.add_classifier(status_classifier())
        registry.add_entity_classifier(all_procedures())
        assert registry.schema("endoscopy").name == "endoscopy"
        assert registry.classifier("status_from_fig2").name == "status_from_fig2"

    def test_duplicates_rejected(self):
        registry = Registry()
        registry.add_classifier(status_classifier())
        with pytest.raises(MultiClassError):
            registry.add_classifier(status_classifier())

    def test_missing_raises(self):
        with pytest.raises(MultiClassError):
            Registry().study("nope")

    def test_classifiers_for_target(self):
        registry = Registry()
        registry.add_classifier(status_classifier())
        registry.add_classifier(hypoxia_classifier())
        found = registry.classifiers_for("Procedure", "Smoking")
        assert [c.name for c in found] == ["status_from_fig2"]
        assert registry.classifiers_for("Procedure", "Smoking", "status3")

    def test_studies_using_schema_and_classifier(self):
        registry = Registry()
        study = Study("s1", schema())
        study.add_element("Procedure", "Smoking", "status3")
        study.bind(make_source("a", False), [all_procedures()], [status_classifier()])
        registry.add_study(study)
        assert registry.studies_using_schema("endoscopy") == [study]
        assert registry.studies_using_classifier("status_from_fig2") == [study]
        assert registry.studies_using_classifier("unused") == []

    def test_counts(self):
        registry = Registry()
        registry.add_schema(schema())
        assert registry.counts()["schemas"] == 1
