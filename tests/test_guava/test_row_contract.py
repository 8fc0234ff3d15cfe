"""The read-only row contract of ``GuavaSource.execute``.

Every row a full read returns (a hit, delta or miss, raw or mapped) and
every raw row a record-scoped read picks from the kept raw read is a row
object the result memo keeps: each read hands out a new *list* of them,
and no reader changes one (a reader that needs a changed row builds a new
dict).  These tests pin both halves, on the naive and Generic (EAV)
chains: hits share their rows (``is``), and the consumers of those rows
(a study preview with record- and study-scoped DISCARD rules, its ETL
publish, a warehouse full build and an incremental refresh) leave every
kept row equal to a deep copy taken before them.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro.etl import compile_study
from repro.guava import GTreeQuery, GuavaSource, RowMap, translate_query
from repro.multiclass import (
    Classifier,
    CleaningRule,
    Domain,
    EntityClassifier,
    Rule,
    Study,
)
from repro.multiclass.study import DISCARDED
from repro.multiclass.study_schema import Entity, StudySchema
from repro.obs import tracing
from repro.patterns import GenericPattern, NaivePattern, PatternChain
from repro.relational import Database
from repro.relational.interpret import execute_interpreted
from repro.ui import ReportingTool
from repro.ui.form import RECORD_ID
from repro.warehouse import FullStrategy, MaterializationJob, Warehouse
from tests.conftest import build_fig2_form

CHAINS = {
    "naive": lambda: [NaivePattern()],
    "generic": lambda: [GenericPattern(["procedure"])],
}

RECORDS = (
    {"smoking": "Never", "hypoxia": True},
    {"smoking": "Current", "frequency": 3.0, "hypoxia": False},
    {"smoking": "Previous", "frequency": 0.5},
    {"hypoxia": True, "alcohol": "Light"},
    {"smoking": "Current", "frequency": 1.0, "hypoxia": True},
)


def _source(kind: str) -> GuavaSource:
    tool = ReportingTool("contract", "1.0", forms=[build_fig2_form()])
    chain = PatternChain(tool.naive_schemas(), CHAINS[kind]())
    source = GuavaSource("contract", tool, chain)
    _enter(source, len(RECORDS))
    # A patch finds new records through the driving table's index.
    for name, schema in chain.physical_schemas.items():
        if schema.has_column(RECORD_ID):
            source.db.table(name).create_index((RECORD_ID,))
    return source


def _enter(source: GuavaSource, count: int) -> None:
    first = 1 + max((r[RECORD_ID] for r in _oracle(source)), default=0)
    session = source.session(first_record_id=first)
    for index in range(count):
        session.enter("procedure", RECORDS[index % len(RECORDS)])


#: A row map that keeps every node and adds one column.
_TAGGED = RowMap("tagged", lambda record: {**record, "tag": 1})


def _query(source: GuavaSource) -> GTreeQuery:
    return GTreeQuery(source.gtree("procedure"))


def _oracle(source: GuavaSource, row_map: RowMap | None = None) -> list[dict]:
    rows = execute_interpreted(translate_query(_query(source), source.chain), source.db)
    return rows if row_map is None else list(map(row_map.apply, rows))


def _multiset(rows: list[dict]) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in rows)


def _classifiers() -> list[Classifier]:
    return [
        Classifier(
            "smoking_status",
            "Procedure",
            "Smoking",
            "status3",
            rules=[
                Rule.of("'Current'", "smoking = 'Current'"),
                Rule.of("'Previous'", "smoking = 'Previous'"),
                Rule.of("'Never'", "smoking = 'Never'"),
            ],
        ),
        Classifier(
            "hypoxia_flag",
            "Procedure",
            "Hypoxia",
            "flag",
            rules=[Rule.of("hypoxia", "hypoxia IS NOT NULL")],
        ),
    ]


def _schema() -> StudySchema:
    procedure = Entity("Procedure")
    procedure.add_attribute(
        "Smoking", Domain.categorical("status3", ["Current", "Previous", "Never"])
    )
    procedure.add_attribute("Hypoxia", Domain.boolean("flag"))
    return StudySchema("contract", procedure)


def _entity_classifier() -> EntityClassifier:
    return EntityClassifier("procedures", "Procedure", "procedure")


def _study(source: GuavaSource) -> Study:
    study = Study("contract", _schema())
    study.add_element("Procedure", "Smoking", "status3")
    study.add_element("Procedure", "Hypoxia", "flag")
    study.bind(source, [_entity_classifier()], _classifiers())
    study.add_cleaning_rule(
        "Procedure", CleaningRule.of("heavy", "frequency >= 2", reason="protocol")
    )
    study.add_cleaning_rule(
        "Procedure",
        CleaningRule.of("unanswered", "Smoking_status3 IS NULL", scope="study"),
    )
    return study


def _strategy(source: GuavaSource) -> FullStrategy:
    job = MaterializationJob(
        _schema(),
        "Procedure",
        [source],
        {source.name: _entity_classifier()},
        _classifiers(),
    )
    return FullStrategy(job, Warehouse())


def _kept(source: GuavaSource) -> list[tuple[dict, dict]]:
    """Every row the memo keeps, raw and in every image, with a deep copy."""
    pairs = []
    for _, raw, state in source.db._result_memo.values():
        pairs.extend((row, copy.deepcopy(row)) for row in raw)
        for _, image, _ in state.maps.values():
            pairs.extend((row, copy.deepcopy(row)) for row in image)
    return pairs


def _reads(tracer) -> list:
    """The ``guava.read`` spans of a trace, in trace order."""
    return [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.name == "guava.read"
    ]


def _outcomes(tracer) -> list:
    return [span.attrs["result_memo"] for span in _reads(tracer)]


@pytest.mark.parametrize("kind", sorted(CHAINS))
class TestConsumersLeaveKeptRowsAlone:
    def test_preview_publish_build_and_refresh_change_no_kept_row(self, kind):
        source = _source(kind)
        study = _study(source)
        strategy = _strategy(source)
        # Fill the memo: the raw read, the study's image (with discarded
        # records marked) and the warehouse job's image.
        study.run()
        strategy.build()
        pairs = _kept(source)
        assert any(DISCARDED in row for row, _ in pairs)
        assert len(source.db._result_memo) == 1

        def consume() -> None:
            result = study.run()
            assert result.quarantine.counts() == {"heavy": 1, "unanswered": 1}
            for quarantined in result.quarantine.rows:
                assert DISCARDED not in quarantined.row
            warehouse = Database("wh")
            compile_study(study, warehouse).run()
            (table,) = warehouse.table_names()
            assert _multiset(warehouse.table(table).rows()) == _multiset(
                result.rows("Procedure")
            )

        with tracing() as tracer:
            consume()  # memo hits
            strategy.build()
        assert set(_outcomes(tracer)) == {"hit"}
        _enter(source, 2)  # one of them discarded by "heavy"
        with tracing() as tracer:
            strategy.build(incremental=True)  # picked from the patched raw read
        assert [span.attrs.get("picked_records") for span in _reads(tracer)] == [2]
        with tracing() as tracer:
            study_result = study.run()  # a delta over the kept rows
        assert _outcomes(tracer) == ["delta"]
        assert study_result.count("Procedure") == 4
        for row, before in pairs:
            assert row == before


class TestHitsShareRows:
    @pytest.mark.parametrize("kind", sorted(CHAINS))
    @pytest.mark.parametrize("mapped", [False, True], ids=["raw", "mapped"])
    def test_two_hits_return_the_same_rows_in_new_lists(self, kind, mapped):
        source = _source(kind)
        row_map = _TAGGED if mapped else None
        query = _query(source)
        with tracing() as tracer:
            reads = [source.execute(query, row_map=row_map) for _ in range(3)]
        assert _outcomes(tracer) == ["miss", "hit", "hit"]
        first, second, third = reads
        assert second is not third and first is not second
        assert len(first) == len(second) == len(third) == len(RECORDS)
        assert all(a is b for a, b in zip(second, third))
        assert all(a is b for a, b in zip(first, second))  # the miss kept its own
        assert _multiset(third) == _multiset(_oracle(source, row_map))
        # The list is the caller's: emptying it leaves the next read whole.
        third.clear()
        assert source.execute(query, row_map=row_map) == second

    def test_a_pick_hands_out_the_kept_raw_rows(self):
        source = _source("naive")
        query = _query(source)
        full = source.execute(query)
        by_id = {row[RECORD_ID]: row for row in full}
        with tracing() as tracer:
            picked = source.execute(query, record_ids=[4, 2])
        (span,) = _reads(tracer)
        assert span.attrs["picked_records"] == 2
        assert [row[RECORD_ID] for row in picked] == [2, 4]
        assert all(row is by_id[row[RECORD_ID]] for row in picked)


@pytest.mark.parametrize("kind", sorted(CHAINS))
class TestCorrections:
    def test_a_result_handed_out_before_a_correction_is_unchanged(self, kind):
        source = _source(kind)
        query = _query(source)
        raw = source.execute(query)
        mapped = source.execute(query, row_map=_TAGGED)
        before = copy.deepcopy((raw, mapped))
        # Correct a kept record behind the memo, registered with the feed.
        if kind == "naive":
            source.db.table("procedure").update(
                lambda row: row[RECORD_ID] == 2, {"smoking": "Previous"}
            )
        else:
            source.db.table("eav").update(
                lambda row: row[RECORD_ID] == 2 and row["attribute"] == "smoking",
                {"value": "Previous"},
            )
        source.track_change(2, form="procedure")
        assert (raw, mapped) == before
        again = source.execute(query)
        assert _multiset(again) == _multiset(_oracle(source))
        assert any(r[RECORD_ID] == 2 and r["smoking"] == "Previous" for r in again)
        assert _multiset(source.execute(query, row_map=_TAGGED)) == _multiset(
            _oracle(source, _TAGGED)
        )
        assert (raw, mapped) == before
