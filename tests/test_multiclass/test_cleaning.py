"""Tests for the §6 data-cleaning extension of the classifier language."""

import pytest

from repro.errors import ClassifierError, StudyError
from repro.multiclass import CleaningRule, Quarantine, parse_cleaning_rule
from repro.multiclass.cleaning import apply_rules
from tests.test_multiclass.test_study_registry import (
    all_procedures,
    hypoxia_classifier,
    make_source,
    schema,
    status_classifier,
)
from repro.multiclass import Study


class TestCleaningRule:
    def test_discards_on_true(self):
        rule = CleaningRule.of("bad_packs", "frequency > 100")
        assert rule.discards({"frequency": 200})
        assert not rule.discards({"frequency": 2})

    def test_null_condition_keeps(self):
        rule = CleaningRule.of("bad_packs", "frequency > 100")
        assert not rule.discards({"frequency": None})

    def test_scope_validated(self):
        with pytest.raises(ClassifierError):
            CleaningRule("x", "a = 1", scope="bogus")

    def test_input_nodes(self):
        rule = CleaningRule.of("r", "a > 1 AND b IS NULL")
        assert rule.input_nodes() == {"a", "b"}

    def test_to_source(self):
        rule = CleaningRule.of("r", "a > 1", reason="test data")
        assert rule.to_source() == "DISCARD r WHEN (a > 1)  -- test data"


class TestParseCleaningRule:
    def test_record_scope(self):
        rule = parse_cleaning_rule("DISCARD test_pts WHEN patient_id >= 9000")
        assert rule.name == "test_pts"
        assert rule.scope == "record"
        assert rule.discards({"patient_id": 9001})

    def test_study_scope(self):
        rule = parse_cleaning_rule(
            "DISCARD STUDY unclassified WHEN Smoking_status3 IS NULL"
        )
        assert rule.scope == "study"

    def test_reason_after_dashes(self):
        rule = parse_cleaning_rule("DISCARD r WHEN a = 1 -- known bad batch")
        assert rule.reason == "known bad batch"

    @pytest.mark.parametrize(
        "bad", ["", "KEEP x WHEN a = 1", "DISCARD x a = 1", "DISCARD x WHENCE a"]
    )
    def test_malformed(self, bad):
        with pytest.raises(ClassifierError):
            parse_cleaning_rule(bad)


class TestApplyRules:
    def test_quarantine_records_provenance(self):
        quarantine = Quarantine()
        rules = [CleaningRule.of("r1", "a = 1", reason="why")]
        kept = apply_rules(
            rules, [{"a": 1}, {"a": 2}], "src", "record", quarantine
        )
        assert kept == [{"a": 2}]
        assert len(quarantine) == 1
        assert quarantine.rows[0].rule == "r1"
        assert quarantine.rows[0].reason == "why"
        assert quarantine.rows[0].source == "src"

    def test_scope_filtering(self):
        quarantine = Quarantine()
        rules = [CleaningRule.of("r1", "a = 1", scope="study")]
        kept = apply_rules(rules, [{"a": 1}], "src", "record", quarantine)
        assert kept == [{"a": 1}]  # study-scoped rule ignored at record scope

    def test_first_rule_wins_counting(self):
        quarantine = Quarantine()
        rules = [
            CleaningRule.of("r1", "a = 1"),
            CleaningRule.of("r2", "a = 1"),
        ]
        apply_rules(rules, [{"a": 1}], "src", "record", quarantine)
        assert quarantine.counts() == {"r1": 1}


class TestStudyCleaning:
    def build_study(self) -> Study:
        study = Study("cleanable", schema())
        study.add_element("Procedure", "Smoking", "status3")
        study.add_element("Procedure", "Hypoxia", "flag")
        study.bind(
            make_source("a", False),
            [all_procedures()],
            [status_classifier(), hypoxia_classifier()],
        )
        return study

    def test_record_scope_cleans_raw_nodes(self):
        study = self.build_study()
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of("no_heavy", "frequency >= 2", reason="protocol"),
        )
        result = study.run()
        assert result.count("Procedure") == 2  # record 1 (2.5 packs) discarded
        assert result.quarantine.counts() == {"no_heavy": 1}
        assert result.quarantine.rows[0].source == "a"

    def test_study_scope_cleans_classified_columns(self):
        study = self.build_study()
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of(
                "current_only", "Smoking_status3 != 'Current'", scope="study"
            ),
        )
        result = study.run()
        assert result.count("Procedure") == 1
        assert result.rows("Procedure")[0]["Smoking_status3"] == "Current"
        assert len(result.quarantine) == 2

    def test_unknown_entity_rejected(self):
        study = self.build_study()
        with pytest.raises(StudyError):
            study.add_cleaning_rule("Ghost", CleaningRule.of("r", "TRUE"))

    def test_compiled_etl_cleans_identically(self):
        from repro.etl import compile_study
        from repro.relational import Database

        study = self.build_study()
        study.add_cleaning_rule(
            "Procedure", CleaningRule.of("no_heavy", "frequency >= 2")
        )
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of("never_out", "Smoking_status3 = 'None'", scope="study"),
        )
        direct = study.run()
        workflow = compile_study(study, Database("wh"))
        outputs, _ = workflow.run()
        assert sorted(map(repr, outputs["Procedure__load"])) == sorted(
            map(repr, direct.rows("Procedure"))
        )
        quarantine = workflow.context["quarantine"]
        assert quarantine.counts() == direct.quarantine.counts()

    def test_clean_steps_in_workflow(self):
        from repro.etl import compile_study
        from repro.relational import Database

        study = self.build_study()
        heavy = study.add_cleaning_rule(
            "Procedure", CleaningRule.of("no_heavy", "frequency >= 2")
        )
        # A record-scoped rule rides in the extract's row map...
        workflow = compile_study(study, Database("wh"))
        extracts = [s for s in workflow.steps if s.stage == "extract"]
        assert [s.component.row_map.rules for s in extracts] == [(heavy,)]
        assert not any(s.name.endswith("__clean") for s in workflow.steps)
        # ...and a study-scoped rule is a step after the union.
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of("never_out", "Smoking_status3 = 'None'", scope="study"),
        )
        workflow = compile_study(study, Database("wh"))
        names = [step.name for step in workflow.steps]
        assert names.index("Procedure__union") < names.index("Procedure__clean")


class TestQuarantineCopies:
    """A discarded record is copied once: a row map's ``sift`` builds the
    record without its mark and the quarantine keeps that very dict;
    study-scoped rules discard shared rows, so ``apply_rules`` copies."""

    def test_each_discarded_record_is_copied_once(self):
        from repro.analysis import build_study2
        from repro.clinical import build_world
        from repro.multiclass.study import DISCARDED

        world = build_world(40, seed=23)
        study = build_study2(world, "ever")
        for source, condition in (
            ("cori_warehouse_feed", "packs_per_day >= 1"),
            ("endopro_clinic", "cigarettes_per_day >= 20"),
            ("medscribe_clinic", "packs_daily >= 1"),
        ):
            study.add_cleaning_rule(
                "Procedure", CleaningRule.of(f"heavy_{source}", condition, source=source)
            )
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of("hypoxic", "AnyHypoxia_flag = TRUE", scope="study"),
        )
        handed = []
        add = Quarantine.add

        def spy(self, rule, source, row):
            handed.append(row)
            return add(self, rule, source, row)

        for _ in range(2):  # a miss, then a memo hit
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Quarantine, "add", spy)
                result = study.run()
            expected, kept, records = [], [], []
            for binding in study.bindings:
                query = binding.query("Procedure")
                row_map = study.row_map(binding, "Procedure", None)
                raw = binding.source.execute(query)
                mapped = binding.source.execute(query, row_map=row_map)
                kept += raw + mapped
                records += [r for r in mapped if DISCARDED in r]
                expected += [
                    (row_map.rules[row[DISCARDED]].name, binding.source.name, record)
                    for record, row in zip(raw, mapped)
                    if DISCARDED in row
                ]
            by_record = [q for q in result.quarantine.rows if q.source != "study"]
            assert by_record and len(result.quarantine) > len(by_record)
            assert [(q.rule, q.source, q.row) for q in by_record] == expected
            assert all(DISCARDED not in q.row for q in by_record)
            # The quarantined row is the dict the quarantine was handed ...
            assert [id(q.row) for q in result.quarantine.rows] == list(map(id, handed))
            # ... and never a kept row (raw, mapped or marked).
            ids = {id(row) for row in kept + records}
            assert all(id(q.row) not in ids for q in result.quarantine.rows)
            handed.clear()
