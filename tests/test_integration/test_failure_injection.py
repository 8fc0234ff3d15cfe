"""Failure-injection tests: the system must fail loudly and precisely.

Clinical integration that fails silently is worse than one that crashes;
these tests pin down the error surface for misconfiguration, corruption,
and misuse.
"""

import pytest

from repro.errors import (
    GuavaError,
    IntegrityError,
    PatternWriteError,
    QueryError,
    SchemaError,
    StudyError,
)
from repro.clinical import generate_truths
from repro.clinical.vendors import build_endopro_chain, build_endopro_tool, endopro_values
from repro.clinical.vocabulary import INDICATIONS
from repro.guava import GuavaSource
from repro.patterns import (
    EncodingPattern,
    GenericPattern,
    NaivePattern,
    PatternChain,
)
from repro.relational import Database, DataType, Scan, TableSchema
from repro.ui import CheckBox, Form, ReportingTool
from tests.conftest import build_fig2_form


def tool():
    return ReportingTool("t", "1.0", forms=[build_fig2_form()])


class TestChainMisconfiguration:
    def test_chain_must_cover_all_forms(self):
        extra_form = Form("extra", "Extra", controls=[CheckBox("x", "X")])
        two_form_tool = ReportingTool(
            "t", "1.0", forms=[build_fig2_form(), extra_form]
        )
        partial = PatternChain(
            {"procedure": two_form_tool.naive_schemas()["procedure"]},
            [NaivePattern()],
        )
        with pytest.raises(GuavaError):
            GuavaSource("s", two_form_tool, partial)

    def test_writing_unknown_form_rejected(self):
        chain = PatternChain(tool().naive_schemas(), [NaivePattern()])
        db = Database("d")
        chain.deploy(db)
        with pytest.raises(PatternWriteError):
            chain.write(db, "ghost_form", {"record_id": 1})

    def test_plan_for_unknown_form_rejected(self):
        chain = PatternChain(tool().naive_schemas(), [NaivePattern()])
        with pytest.raises(Exception):
            chain.plan_for("ghost_form")


class TestDataCorruption:
    def test_duplicate_record_id_rejected_at_storage(self):
        chain = PatternChain(tool().naive_schemas(), [NaivePattern()])
        db = Database("d")
        chain.deploy(db)
        chain.write(db, "procedure", {"record_id": 1, "smoking": "Never"})
        with pytest.raises(IntegrityError):
            chain.write(db, "procedure", {"record_id": 1, "smoking": "Never"})

    def test_unencodable_value_rejected_not_mangled(self):
        chain = PatternChain(
            tool().naive_schemas(),
            [EncodingPattern({("procedure", "smoking"): {"Never": 0, "Current": 1}})],
        )
        db = Database("d")
        chain.deploy(db)
        # 'Previous' has no code: the write must fail, not store garbage.
        with pytest.raises(PatternWriteError):
            chain.write(db, "procedure", {"record_id": 1, "smoking": "Previous"})
        assert len(db.table("procedure")) == 0

    def test_corrupt_eav_attribute_is_ignored_not_misassigned(self):
        chain = PatternChain(tool().naive_schemas(), [GenericPattern(["procedure"])])
        db = Database("d")
        chain.deploy(db)
        chain.write(db, "procedure", {"record_id": 1, "smoking": "Never"})
        # A rogue writer inserts an attribute no control defines.
        db.table("eav").insert(
            {"entity": "procedure", "record_id": 1, "attribute": "rogue", "value": "x"}
        )
        back = chain.read_naive(db, "procedure")
        assert len(back) == 1
        assert "rogue" not in back[0]


class TestScreenAtomicity:
    """A saved screen is stored whole or not at all."""

    def _state(self, source):
        db = source.db
        return (
            {name: db.table(name).rows() for name in db.table_names()},
            {name: db.table(name).version for name in db.table_names()},
            source.data_version(),
            list(source.feed.log),
            source.feed.floor,
            source.feed.accounted,
        )

    def test_a_screen_failing_a_storage_check_writes_nothing(self):
        tool = build_endopro_tool()
        source = GuavaSource("endo", tool, build_endopro_chain(tool))
        first, second = generate_truths(2, seed=3)
        source.session().enter("endoscopy_report", endopro_values(first))
        before = self._state(source)
        version = source.data_version()
        # The screen's rows reach five tables, the reason's new code row
        # first; record id 1 is taken, so the split tables refuse theirs.
        values = endopro_values(second)
        values["reason"] = next(
            reason for reason in INDICATIONS if reason != endopro_values(first)["reason"]
        )
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            source.session().enter("endoscopy_report", values)
        assert self._state(source) == before
        # Nothing moved, so the next refresh can still enumerate changes.
        assert source.changed_record_ids(version) == set()

        # The refused screen's code was not kept: the next screen with that
        # reason stores the code row beside its own rows.
        later = source.session(first_record_id=2)
        later.enter("endoscopy_report", values)
        assert source.changed_record_ids(version) == {2}
        codes = {row["label"]: row["code"] for row in source.db.table("reason_codes").rows()}
        assert sorted(codes.values()) == [1, 2]
        stored = {
            row["record_id"]: row["reason"]
            for row in source.chain.read_naive(source.db, "endoscopy_report")
        }
        assert stored == {1: endopro_values(first)["reason"], 2: values["reason"]}


class TestQueryMisuse:
    def test_missing_table_scan_fails(self):
        with pytest.raises(SchemaError):
            Scan("nothing").execute(Database("d"))

    def test_union_of_mismatched_sources_fails(self):
        db = Database("d")
        db.create_table(TableSchema.build("a", [("x", DataType.INTEGER)]))
        db.create_table(TableSchema.build("b", [("y", DataType.INTEGER)]))
        from repro.relational import Union

        with pytest.raises(QueryError):
            Union((Scan("a"), Scan("b"))).execute(db)


class TestStudyMisuse:
    def test_second_binding_for_same_source_is_allowed_but_unions(self, world):
        """Binding a source twice doubles its rows — documented union-all
        semantics, verified so nobody assumes implicit dedup."""
        from repro.analysis import build_endoscopy_schema
        from repro.analysis.classifiers import vendor_classifiers_for
        from repro.multiclass import Study

        source = world.sources[0]
        vendor = vendor_classifiers_for(source)
        status = next(c for c in vendor.base if c.target_domain == "status3")
        study = Study("double", build_endoscopy_schema())
        study.add_element("Procedure", "Smoking", "status3")
        study.bind(source, [vendor.entity_classifier], [status])
        study.bind(source, [vendor.entity_classifier], [status])
        result = study.run()
        assert result.count("Procedure") == 2 * len(
            world.truths_by_source[source.name]
        )

    def test_filter_on_unknown_column_fails_at_run(self, world):
        from repro.analysis import build_study1

        study = build_study1(world)
        study.where("Procedure", "NoSuchColumn_flag = TRUE")
        with pytest.raises(Exception):
            study.run()

    def test_entity_without_elements_not_run(self, world):
        from repro.analysis import build_study1

        study = build_study1(world)
        result = study.run()
        with pytest.raises(StudyError):
            result.rows("Finding")  # never selected, never produced
