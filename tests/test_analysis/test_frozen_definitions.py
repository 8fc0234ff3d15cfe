"""Definitions are data: one frozen schema, shared and pre-checked bindings.

The endoscopy schema is a frozen module constant; a caller that changes a
schema changes a copy.  ``standard_bindings`` attaches one shared,
checked ``SourceBinding`` per (source, selection), so a rebuilt study
constructs no schema or classifier, runs no check, and reads through the
binding's query and row map.  What a study adds of its own (elements,
filters, cleaning rules) stays in that study.
"""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import pytest

from repro.analysis import build_study1, build_study2
from repro.analysis.schema import ENDOSCOPY_SCHEMA, build_endoscopy_schema
from repro.analysis.studies import STUDY1_ELEMENTS
from repro.clinical import build_world
from repro.errors import StudyError, StudySchemaError
from repro.etl import compile_study
from repro.etl.components import Extract
from repro.multiclass import (
    Classifier,
    CleaningRule,
    Domain,
    EntityClassifier,
    Entity,
    StudySchema,
)
from repro.relational import Database

BUILDS = {
    "S1": build_study1,
    "S2-1y": lambda world: build_study2(world, "1y"),
    "S2-ever": lambda world: build_study2(world, "ever"),
}


@pytest.fixture(scope="module")
def world():
    return build_world(30, seed=13)


def _counting(cls, name, calls):
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    return mock.patch.object(cls, name, counted)


def _extracts(workflow):
    return [
        step.component
        for step in workflow.steps
        if isinstance(step.component, Extract)
    ]


class TestFrozenSchema:
    def test_the_schema_constant_cannot_be_mutated(self):
        schema = build_endoscopy_schema()
        assert schema is ENDOSCOPY_SCHEMA and schema.frozen
        procedure = schema.entity("Procedure")
        smoking = procedure.attribute("Smoking")
        with pytest.raises(StudySchemaError, match="frozen"):
            procedure.add_attribute("Weight", Domain.real("kg"))
        with pytest.raises(StudySchemaError, match="frozen"):
            smoking.add_domain(Domain.boolean("ever"))
        with pytest.raises(StudySchemaError, match="frozen"):
            procedure.add_child(Entity("Biopsy"))
        with pytest.raises(TypeError):
            smoking.domains["habits4"] = Domain.boolean("habits4")
        with pytest.raises(TypeError):
            procedure.attributes["Weight"] = smoking
        with pytest.raises(AttributeError):
            procedure.children.append(Entity("Biopsy"))
        assert schema.attribute_count() == 22

    def test_a_copy_changes_without_touching_the_constant(self):
        before = ENDOSCOPY_SCHEMA.render()
        habits = ENDOSCOPY_SCHEMA.domain_of("Procedure", "Smoking", "habits4")
        copy = build_endoscopy_schema().copy()
        assert not copy.frozen and copy is not ENDOSCOPY_SCHEMA
        assert copy.render() == before
        assert copy.annotations.created == ENDOSCOPY_SCHEMA.annotations.created
        procedure = copy.entity("Procedure")
        procedure.add_attribute("Weight", Domain.real("kg"))
        procedure.attribute("Smoking").add_domain(Domain.boolean("ever"))
        widened = Domain.categorical("habits4", ["None", "Light", "Heavy", "Other"])
        procedure.attribute("Smoking").domains["habits4"] = widened
        procedure.add_child(Entity("Biopsy"))
        assert copy.domain_of("Procedure", "Weight", "kg").name == "kg"
        assert copy.domain_of("Procedure", "Smoking", "habits4") is widened
        assert copy.has_entity("Biopsy")
        assert ENDOSCOPY_SCHEMA.render() == before
        assert ENDOSCOPY_SCHEMA.domain_of("Procedure", "Smoking", "habits4") is habits
        assert not ENDOSCOPY_SCHEMA.has_entity("Biopsy")
        with pytest.raises(StudySchemaError):
            ENDOSCOPY_SCHEMA.domain_of("Procedure", "Weight", "kg")

    def test_a_frozen_schema_resolves_as_a_walk_does(self):
        frozen, walked = ENDOSCOPY_SCHEMA, ENDOSCOPY_SCHEMA.copy()
        for entity in walked.entities():
            assert frozen.entity(entity.name).name == entity.name
            assert frozen.has_entity(entity.name)
            for attribute in entity.attributes.values():
                for name, domain in attribute.domains.items():
                    target = (entity.name, attribute.name, name)
                    assert frozen.domain_of(*target) is walked.domain_of(*target)
        assert not frozen.has_entity("Ghost")
        for target in [("Ghost", "A", "d"), ("Procedure", "Smoking", "nope")]:
            with pytest.raises(StudySchemaError):
                frozen.domain_of(*target)
            with pytest.raises(StudySchemaError):
                frozen.check_targets({target})


class TestSharedBindings:
    @pytest.mark.parametrize("label", sorted(BUILDS))
    def test_two_builds_share_the_binding_query_and_row_maps(self, world, label):
        first, second = BUILDS[label](world), BUILDS[label](world)
        assert len(first.bindings) == len(second.bindings) == len(world.sources)
        for one, other in zip(first.bindings, second.bindings):
            assert one is not other  # each study has its own view ...
            assert one.binding is other.binding  # ... of one binding
            assert one.query("Procedure") is other.query("Procedure")
            assert one.query("Procedure") is one.binding.queries["Procedure"]
            assert first.row_map(one, "Procedure", None) is second.row_map(
                other, "Procedure", None
            )
        # The publish reads the very query and map the preview reads.
        extracts = _extracts(compile_study(second, Database("wh")))
        for binding, extract in zip(second.bindings, extracts):
            assert extract.query is binding.query("Procedure")
            assert extract.row_map is second.row_map(binding, "Procedure", None)

    @pytest.mark.parametrize("label", sorted(BUILDS))
    def test_a_rebuild_constructs_and_checks_nothing(self, world, label):
        BUILDS[label](world).run()
        made, checks = [], []
        with (
            _counting(Classifier, "__init__", made),
            _counting(EntityClassifier, "__init__", made),
            _counting(StudySchema, "__init__", made),
            _counting(Classifier, "validate_against", checks),
            _counting(EntityClassifier, "validate_against", checks),
        ):
            study = BUILDS[label](world)
            study.run()
            compile_study(BUILDS[label](world), Database("wh")).run()
        assert made == checks == []

    def test_a_redeployed_tool_gets_a_new_binding(self):
        from repro.guava.derive import derive_all

        world = build_world(10, seed=2)
        before = build_study2(world, "ever").bindings
        source = world.sources[1]
        source.gtrees = derive_all(source.tool)
        after = build_study2(world, "ever").bindings
        assert [a.binding is b.binding for a, b in zip(before, after)] == [
            True,
            False,
            True,
        ]
        assert after[1].binding.is_current() and not before[1].binding.is_current()
        form = after[1].entity_classifiers["Procedure"].form
        assert after[1].query("Procedure").gtree is source.gtree(form)


    def test_a_dropped_source_drops_its_bindings(self):
        world = build_world(10, seed=4)
        study = build_study1(world)
        study.run()
        sources = [weakref.ref(source) for source in world.sources]
        bindings = [weakref.ref(binding.binding) for binding in study.bindings]
        del world
        gc.collect()
        assert all(ref() is not None for ref in sources)  # the study holds them
        del study
        gc.collect()
        assert all(ref() is None for ref in sources + bindings)


class TestStudyOwnDefinitions:
    def test_a_record_scoped_discard_gets_its_own_row_map(self, world):
        plain = build_study2(world, "ever")
        expected = plain.run()
        shared = [plain.row_map(b, "Procedure", None) for b in plain.bindings]

        ruled = build_study2(world, "ever")
        cori = ruled.bindings[0].source.name
        ruled.add_cleaning_rule(
            "Procedure",
            CleaningRule.of("heavy", "packs_per_day >= 1", source=cori),
        )
        maps = [ruled.row_map(b, "Procedure", None) for b in ruled.bindings]
        assert maps[0] is not shared[0] and maps[0].key != shared[0].key
        assert maps[0].rules
        assert all(a is b for a, b in zip(maps[1:], shared[1:]))
        kept = ruled.bindings[0].binding.row_maps.values()
        assert all(maps[0] is not row_map for row_map in kept)
        result = ruled.run()
        assert len(result.quarantine) > 0
        assert result.count("Procedure") + len(result.quarantine) == expected.count(
            "Procedure"
        )

        later = build_study2(world, "ever")
        assert later.cleaning == {}
        again = [later.row_map(b, "Procedure", None) for b in later.bindings]
        assert all(a is b for a, b in zip(again, shared))
        result = later.run()
        assert result.tables == expected.tables and len(result.quarantine) == 0

    def test_where_and_add_element_stay_in_their_study(self, world):
        expected = build_study1(world).run().tables
        changed = build_study1(world)
        changed.where("Procedure", "TransientHypoxia_flag = TRUE")
        changed.add_element("Procedure", "Alcohol", "alcohol3")
        with pytest.raises(StudyError, match="no classifier"):
            changed.run()

        later = build_study1(world)
        assert later.filters == {}
        assert [e[1:] for e in later.elements] == STUDY1_ELEMENTS
        assert all(
            a.binding is b.binding for a, b in zip(later.bindings, changed.bindings)
        )
        assert later.run().tables == expected
