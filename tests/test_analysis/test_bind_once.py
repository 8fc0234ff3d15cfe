"""Bind once: a rebuilt study repeats no definition work.

``standard_bindings`` attaches one shared, checked ``SourceBinding`` per
(source, selection) and g-tree objects, whose frozen classifiers are
built and checked once and whose row maps ``Study.row_map`` keeps.  Only
immutable objects are shared: every classifier a caller gets from the
catalogue is its own, a bound classifier refuses change, and a study's
own view of a binding may swap classifiers without reaching any other.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import pytest

from repro.analysis import (
    build_cohort_study,
    build_study1,
    build_study2,
    standard_bindings,
    study2_truth,
    vendor_classifiers_for,
)
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical import build_world
from repro.errors import ClassifierError, StudyError
from repro.etl import compile_study
from repro.expr.ast import BinaryOp, Identifier, Literal
from repro.guava.derive import derive_all
from repro.multiclass import Classifier, EntityClassifier, Rule, Study
from repro.multiclass.study import element_column
from repro.relational import Database


def _habits_chemistry(world):
    return build_cohort_study(
        "habits_chemistry",
        world,
        [("Smoking", "habits4"), ("AnyHypoxia", "flag")],
        habits_variant="chemistry",
    )


BUILDS = {
    "S1": build_study1,
    "S2-1y": lambda world: build_study2(world, "1y"),
    "S2-10y": lambda world: build_study2(world, "10y"),
    "S2-ever": lambda world: build_study2(world, "ever"),
    "habits-chemistry": _habits_chemistry,
}

#: Classifiers bound per source: Study 1 selects nine elements, the others two.
BOUND_PER_SOURCE = {
    "S1": 9,
    "S2-1y": 2,
    "S2-10y": 2,
    "S2-ever": 2,
    "habits-chemistry": 2,
}


@pytest.fixture(scope="module")
def world():
    return build_world(30, seed=11)


def _row_maps(study):
    return [
        study.row_map(binding, entity, binding.entity_classifiers[entity].parent_link)
        for entity in study.entities_in_play()
        for binding in study.bindings
    ]


def _counting(cls, name, calls):
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    return mock.patch.object(cls, name, counted)


class TestSecondBuild:
    @pytest.mark.parametrize("label", list(BUILDS))
    def test_builds_binds_and_maps_nothing_twice(self, world, label):
        build = BUILDS[label]
        first = build(world)
        first_maps = _row_maps(first)
        built, checks = [], []
        with (
            _counting(Classifier, "__init__", built),
            _counting(EntityClassifier, "__init__", built),
            _counting(Classifier, "validate_against", checks),
            _counting(EntityClassifier, "validate_against", checks),
        ):
            second = build(world)
            second_maps = _row_maps(second)
        bound = [c for binding in second.bindings for c in binding.classifiers.values()]
        assert len(bound) == BOUND_PER_SOURCE[label] * len(world.sources)
        assert built == checks == []
        assert all(
            a.binding is b.binding for a, b in zip(second.bindings, first.bindings)
        )
        assert len(second_maps) == len(first_maps)
        assert all(a is b for a, b in zip(second_maps, first_maps))

    def test_a_map_over_a_mutable_literal_is_built_every_time(self, world):
        study = build_study2(world, "ever")
        binding = study.bindings[0]
        element = ("Procedure", "ExSmoker", "flag")
        items = ["Previous"]
        guard = BinaryOp("=", Identifier.of("smoking"), Literal(items))
        binding.classifiers[element] = Classifier(
            "listed", *element, rules=[Rule(Literal(True), guard)]
        )
        first = study.row_map(binding, "Procedure", None)
        again = study.row_map(binding, "Procedure", None)
        assert again is not first and again.key == first.key
        items.append("Current")
        changed = study.row_map(binding, "Procedure", None)
        assert changed.key != first.key

    def test_the_catalogue_still_builds_every_classifier(self, world):
        built = []
        with _counting(Classifier, "__init__", built):
            for source in world.sources:
                vendor_classifiers_for(source)
        assert len(built) == 58

    def test_a_rebuild_previews_and_publishes_like_the_first_build(self, world):
        for build in BUILDS.values():
            first = build(world)
            expected = first.run().tables
            assert build(world).run().tables == expected
            warehouse = Database("wh")
            compile_study(build(world), warehouse).run()
            (table,) = warehouse.table_names()
            assert len(warehouse.table(table).rows()) == len(expected["Procedure"])


class TestSharing:
    def test_changing_a_catalogue_result_changes_no_later_study(self, world):
        truth = study2_truth(world, "ever")
        before = build_study2(world, "ever").run().tables
        for source in world.sources:
            vendor = vendor_classifiers_for(source)
            vendor.ex_smoker_ever.rules[:] = [Rule.of("TRUE", "TRUE")]
            vendor.ex_smoker_ever.target_entity = "Finding"
            for classifier in vendor.base:
                classifier.rules.reverse()
                classifier.target_attribute = "Nothing"
            vendor.entity_classifier.condition = Rule.of("FALSE", "FALSE").guard
        fresh = vendor_classifiers_for(world.sources[0])
        assert fresh.ex_smoker_ever.target_entity == "Procedure"
        assert len(fresh.ex_smoker_ever.rules) > 1
        after = build_study2(world, "ever").run().tables
        assert after == before
        rows = after["Procedure"]
        ex = [row for row in rows if row["ExSmoker_flag"] is True]
        assert len(ex) == truth.ex_smokers

    def test_changing_a_bound_classifier_changes_no_later_study(self, world):
        before = build_study1(world).run().tables
        study = build_study1(world)
        nothing = [Rule.of("NULL", "TRUE")]
        for binding in study.bindings:
            for element, classifier in list(binding.classifiers.items()):
                # A bound classifier is frozen ...
                with pytest.raises(TypeError):
                    classifier.rules[:] = nothing
                with pytest.raises(ClassifierError, match="frozen"):
                    classifier.rules = nothing
                # ... but the study may bind another in its own view.
                binding.classifiers[element] = Classifier(
                    classifier.name, *classifier.target, rules=nothing
                )
        rows = study.run().rows("Procedure")
        assert rows and all(
            row[element_column(*element[1:])] is None
            for row in rows
            for element in study.elements
        )
        assert build_study1(world).run().tables == before


class TestBindChecks:
    def _study(self):
        study = Study("check", build_endoscopy_schema())
        study.add_element("Procedure", "ExSmoker", "flag")
        return study

    def test_an_unknown_node_raises_after_a_valid_classifier_of_that_name(self, world):
        source = world.sources[0]
        entity = vendor_classifiers_for(source).entity_classifier

        def classifier(guard):
            rules = [Rule.of("TRUE", guard)]
            return Classifier("cori_ex", "Procedure", "ExSmoker", "flag", rules=rules)

        valid = classifier("smoking = 'Previous'")
        self._study().bind(source, [entity], [valid])
        for _ in range(2):  # the kept result raises as the first check did
            with pytest.raises(StudyError, match="no_such_node"):
                self._study().bind(
                    source, [entity], [classifier("no_such_node = 'Previous'")]
                )

    def test_an_unknown_entity_node_raises_every_time(self, world):
        source = world.sources[0]
        entity = vendor_classifiers_for(source).entity_classifier
        bad = EntityClassifier(
            entity.name, "Procedure", entity.form, condition="no_such_node = 1"
        )
        for _ in range(2):
            with pytest.raises(StudyError, match="no_such_node"):
                self._study().bind(source, [bad], [])

    def test_a_redeployed_tool_is_checked_again(self):
        world = build_world(10, seed=2)
        build_study2(world, "ever")
        checks, entity_checks = [], []
        with (
            _counting(Classifier, "validate_against", checks),
            _counting(EntityClassifier, "validate_against", entity_checks),
        ):
            build_study2(world, "ever")
            assert checks == entity_checks == []
            source = world.sources[1]
            source.gtrees = derive_all(source.tool)  # new g-tree objects
            build_study2(world, "ever")
        # ExSmoker and AnyHypoxia, and the entity classifier, of that source only
        assert len(checks) == 2 and len(entity_checks) == 1


class TestTypedErrors:
    def test_an_unknown_ex_smoker_definition(self, world):
        with pytest.raises(StudyError, match="ex-smoker definition '2y'"):
            build_study2(world, "2y")
        vendor = vendor_classifiers_for(world.sources[0])
        with pytest.raises(StudyError, match="ex-smoker definition '2y'"):
            vendor.ex_smoker("2y")

    def test_an_unknown_habits_variant(self, world):
        with pytest.raises(StudyError, match="habits variant 'lung'"):
            build_cohort_study(
                "habits", world, [("Smoking", "habits4")], habits_variant="lung"
            )
        vendor = vendor_classifiers_for(world.sources[0])
        with pytest.raises(StudyError, match="habits variant 'lung'"):
            vendor.habits("lung")

    def test_an_unknown_tool_raises_on_every_call(self, world):
        stranger = SimpleNamespace(name="stranger", tool=SimpleNamespace(name="nope"))
        for _ in range(2):
            with pytest.raises(StudyError, match="'nope'"):
                vendor_classifiers_for(stranger)
            study = Study("s", build_endoscopy_schema())
            study.add_element("Procedure", "ExSmoker", "flag")
            with pytest.raises(StudyError, match="'nope'"):
                standard_bindings(study, [stranger])
        assert len(vendor_classifiers_for(world.sources[0]).base) > 0
