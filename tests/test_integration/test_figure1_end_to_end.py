"""Integration: the paper's Figure 1 architecture, end to end.

Contributors -> g-trees -> classifiers -> study schemas -> studies, with
the compiled ETL agreeing with direct evaluation and the warehouse holding
the loaded study tables.
"""

import pytest

from repro.analysis import (
    build_study1,
    build_study2,
    cori_finding_classifiers,
    build_endoscopy_schema,
)
from repro.etl import compile_study
from repro.multiclass import Registry, Study
from repro.relational import Database
from repro.warehouse import StudyTableQuery, Warehouse


class TestArchitecture:
    def test_three_contributors_two_studies(self, world):
        """Figure 1's shape: n sources feed multiple studies through
        per-study classifier choices."""
        study1 = build_study1(world)
        study2 = build_study2(world, "10y")
        assert len(study1.bindings) == 3
        assert len(study2.bindings) == 3
        warehouse = Database("wh")
        for study in (study1, study2):
            outputs, _ = compile_study(study, warehouse).run()
        assert warehouse.has_table("study_study1_hypoxia_interventions_procedure")
        assert warehouse.has_table("study_study2_exsmokers_10y_procedure")

    def test_same_schema_different_classifiers(self, world):
        """Two studies over one study schema can classify the same
        attribute differently — the core MultiClass capability."""
        lenient = build_study2(world, "ever").run()
        strict = build_study2(world, "1y").run()
        lenient_ex = sum(
            1 for r in lenient.rows("Procedure") if r["ExSmoker_flag"] is True
        )
        strict_ex = sum(
            1 for r in strict.rows("Procedure") if r["ExSmoker_flag"] is True
        )
        assert strict_ex < lenient_ex

    def test_registry_supports_reuse_workflow(self, world):
        """An analyst inspects prior studies before choosing classifiers."""
        registry = Registry()
        registry.add_schema(build_endoscopy_schema())
        study1 = build_study1(world)
        study2 = build_study2(world, "ever")
        registry.add_study(study1)
        registry.add_study(study2)
        prior = registry.studies_using_schema("endoscopy")
        assert {s.name for s in prior} == {study1.name, study2.name}
        users = registry.studies_using_classifier("cori_transient_hypoxia")
        assert study1 in users and study2 not in users


class TestChildEntity:
    def test_findings_study(self, world):
        """A has-a child entity (Finding) flows through the same pipeline."""
        schema = build_endoscopy_schema()
        study = Study("tumors", schema)
        study.add_element("Finding", "FindingType", "finding_type")
        study.add_element("Finding", "SizeMm", "mm")
        study.add_element("Finding", "TumorVolume", "cubic_mm")
        entity_classifier, classifiers = cori_finding_classifiers()
        cori = world.source("cori_warehouse_feed")
        study.bind(cori, [entity_classifier], classifiers)
        result = study.run()
        rows = result.rows("Finding")
        truth_findings = [
            f
            for t in world.truths_by_source["cori_warehouse_feed"]
            for f in t.findings
        ]
        assert len(rows) == len(truth_findings)
        # Figure 5b: volume only for tumors with positive size.
        for row in rows:
            if row["FindingType_finding_type"] == "Tumor" and row["SizeMm_mm"] > 0:
                expected = row["SizeMm_mm"] ** 3 * 0.52
                assert row["TumorVolume_cubic_mm"] == pytest.approx(expected)
            else:
                assert row["TumorVolume_cubic_mm"] is None

    def test_findings_filterable(self, world):
        schema = build_endoscopy_schema()
        study = Study("big_findings", schema)
        study.add_element("Finding", "SizeMm", "mm")
        study.where("Finding", "SizeMm_mm >= 30")
        entity_classifier, classifiers = cori_finding_classifiers()
        study.bind(world.source("cori_warehouse_feed"), [entity_classifier], classifiers)
        rows = study.run().rows("Finding")
        assert all(r["SizeMm_mm"] >= 30 for r in rows)


class TestWarehouseRoundTrip:
    def test_spj_over_loaded_study(self, world):
        study = build_study1(world)
        warehouse = Warehouse()
        compile_study(study, warehouse.db).run()
        table = "study_study1_hypoxia_interventions_procedure"
        hypoxia_count = len(
            StudyTableQuery(warehouse, table)
            .where("TransientHypoxia_flag = TRUE")
            .run()
        )
        direct = sum(
            1
            for r in study.run().rows("Procedure")
            if r["TransientHypoxia_flag"] is True
        )
        assert hypoxia_count == direct

    def test_soft_delete_flows_to_study(self, world):
        """Deprecating a CORI record (Audit pattern) removes it from
        subsequent study runs without physical deletion."""
        from repro.clinical import build_cori_source, generate_truths

        truths = generate_truths(30, seed=99)
        source = build_cori_source(truths, name="cori_tmp")
        before = len(source.chain.read_naive(source.db, "procedure"))
        source.chain.soft_delete(source.db, "procedure", 1)
        after = len(source.chain.read_naive(source.db, "procedure"))
        assert after == before - 1
        # The EAV rows are still physically present (audit requirement).
        deprecated = [
            r for r in source.db.table("cori_eav").rows() if r["deprecated"]
        ]
        assert deprecated
