"""Tests for incremental materialization and its lineage contract.

``build(incremental=True)`` must always leave the table with exactly the
rows a full rebuild would produce — refreshing only changed records when
the snapshot lineage can vouch for the delta, and silently rebuilding
when it cannot (first build, changed definitions, untracked mutations).
Row order is unspecified after a refresh, so comparisons sort on
(source, record_id).
"""

from __future__ import annotations

import pytest

from repro.analysis.classifiers import vendor_classifiers_for
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical import build_world
from repro.clinical.cori import cori_procedure_values
from repro.clinical.ground_truth import generate_truths
from repro.errors import DomainError
from repro.multiclass.domain import Domain
from repro.warehouse import (
    DerivationRule,
    DerivedStrategy,
    FullStrategy,
    MaterializationJob,
    SelectiveStrategy,
    Warehouse,
)


@pytest.fixture
def small_world():
    """A fresh, private world per test — these tests mutate sources."""
    return build_world(50, seed=3)


@pytest.fixture
def cori(small_world):
    return small_world.source("cori_warehouse_feed")


def make_job(world, source):
    vendor = vendor_classifiers_for(source)
    return MaterializationJob(
        # A copy: TestDomainChanges swaps a domain of the job's schema, and
        # the shared endoscopy schema is frozen.
        schema=build_endoscopy_schema().copy(),
        entity="Procedure",
        sources=[source],
        entity_classifiers={source.name: vendor.entity_classifier},
        classifiers=[
            vendor.habits_cancer,
            vendor.habits_chemistry,
            vendor.ex_smoker_ever,
        ],
    )


def rows_of(warehouse):
    return sorted(
        warehouse.table("mat_procedure").rows(),
        key=lambda r: (r["source"], r["record_id"]),
    )


def insert_procedures(world, source, count, seed=99):
    existing = len(world.truths_by_source[source.name])
    session = source.session(first_record_id=existing + 1)
    for truth in generate_truths(count, seed=seed):
        session.enter("procedure", cori_procedure_values(truth))


def update_record(source, record_id):
    """Mutate one record's physical rows out of band, then track it."""
    eav = source.db.table("cori_eav")
    changed = eav.update(
        lambda r: r["entity"] == "procedure"
        and r["record_id"] == record_id
        and r["attribute"] == "smoking",
        {"value": "Current"},
    )
    assert changed, f"record {record_id} has no smoking row to flip"
    source.track_change(record_id, form="procedure")


def delete_record(source, record_id):
    eav = source.db.table("cori_eav")
    eav.delete(lambda r: r["entity"] == "procedure" and r["record_id"] == record_id)
    source.track_change(record_id, form="procedure")


def full_rebuild_rows(world, source):
    reference = Warehouse()
    FullStrategy(make_job(world, source), reference).build()
    return rows_of(reference)


class TestIncrementalEqualsFull:
    def test_after_inserts(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        insert_procedures(small_world, cori, 5)
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_after_update(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        before = rows_of(warehouse)
        update_record(cori, record_id=1)
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        after = rows_of(warehouse)
        assert after == full_rebuild_rows(small_world, cori)
        assert after != before  # the flipped answer must show up

    def test_after_delete(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        delete_record(cori, record_id=2)
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert not any(r["record_id"] == 2 for r in rows_of(warehouse))
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_mixed_insert_update_delete(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        insert_procedures(small_world, cori, 3)
        update_record(cori, record_id=1)
        delete_record(cori, record_id=3)
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_selective_strategy(self, small_world, cori):
        warehouse = Warehouse()
        job = make_job(small_world, cori)
        SelectiveStrategy(job, warehouse, ["cori_habits_cancer"]).build()
        insert_procedures(small_world, cori, 4)
        SelectiveStrategy(
            make_job(small_world, cori), warehouse, ["cori_habits_cancer"]
        ).build(incremental=True)
        reference = Warehouse()
        SelectiveStrategy(
            make_job(small_world, cori), reference, ["cori_habits_cancer"]
        ).build()
        assert rows_of(warehouse) == rows_of(reference)

    def test_derived_strategy_delegates(self, small_world, cori):
        rule = DerivationRule.of("cori_habits_chemistry", "cori_habits_cancer", "base")
        warehouse = Warehouse()
        DerivedStrategy(make_job(small_world, cori), warehouse, [rule]).build()
        insert_procedures(small_world, cori, 4)
        strategy = DerivedStrategy(make_job(small_world, cori), warehouse, [rule])
        strategy.build(incremental=True)
        reference = Warehouse()
        ref = DerivedStrategy(make_job(small_world, cori), reference, [rule])
        ref.build()
        key = lambda r: (r["source"], r["record_id"])
        assert sorted(
            strategy.fetch(["cori_habits_chemistry"]), key=key
        ) == sorted(ref.fetch(["cori_habits_chemistry"]), key=key)


class TestRefreshEconomy:
    def test_unchanged_sources_do_not_reload(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        loads_before = len(warehouse.loads)
        version = warehouse.table("mat_procedure").version
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert len(warehouse.loads) == loads_before  # no-op refresh
        assert warehouse.table("mat_procedure").version == version

    def test_refresh_touches_only_changed_records(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        untouched_before = [r for r in rows_of(warehouse) if r["record_id"] != 1]
        update_record(cori, record_id=1)
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        untouched_after = [r for r in rows_of(warehouse) if r["record_id"] != 1]
        assert untouched_after == untouched_before

    def test_base_records_cached_within_cycle(self, small_world, cori):
        """A job reads through the source's result memo: a build misses,
        a second build at the same version hits, and a cold fetch reads
        its own row map once, then hits."""
        cori.db.plan_cache_clear()
        strategy = SelectiveStrategy(
            make_job(small_world, cori), Warehouse(), ["cori_habits_cancer"]
        )
        assert read_outcomes(strategy.build) == ["miss"]
        assert read_outcomes(strategy.build) == ["hit"]
        fetch = lambda: strategy.fetch(  # noqa: E731
            ["cori_habits_cancer", "cori_habits_chemistry"]
        )
        assert read_outcomes(fetch) == ["miss"]
        assert read_outcomes(fetch) == ["hit"]

    def test_cache_invalidated_by_source_change(self, small_world, cori):
        """A full read after an append is patched by the appended records,
        not served stale and not read again in full, once the refresh path
        has built the ``record_id`` index a patch finds them by."""
        cori.db.plan_cache_clear()
        strategy = FullStrategy(make_job(small_world, cori), Warehouse())
        assert read_outcomes(strategy.build) == ["miss"]
        insert_procedures(small_world, cori, 1)
        # A record-scoped refresh: no memoized read, and the index it
        # builds moves the plan epoch, so the next full read misses.
        assert read_outcomes(lambda: strategy.build(incremental=True)) == []
        assert read_outcomes(strategy.build) == ["miss"]
        enter_more(cori, 1, first=1000, seed=7)
        assert read_outcomes(strategy.build) == ["delta"]
        assert rows_of(strategy.warehouse) == full_rebuild_rows(small_world, cori)

    def test_a_build_after_a_preview_reads_no_chain_table(self, small_world, cori):
        """A study and a warehouse name their columns differently, so
        their maps differ; the build still maps the raw read the preview
        kept (a mapped miss over a raw hit) and plans and executes
        nothing."""
        from repro.analysis import build_study2
        from repro.obs import tracing

        cori.db.plan_cache_clear()
        build_study2(small_world).run()
        strategy = FullStrategy(make_job(small_world, cori), Warehouse())
        with tracing() as tracer:
            strategy.build()
        spans = [span for root in tracer.roots for span in root.walk()]
        (read,) = [span for span in spans if span.name == "guava.read"]
        assert (read.attrs["result_memo"], read.attrs["raw_memo"]) == ("miss", "hit")
        assert not [
            span.name
            for span in spans
            if span.name == "optimize" or span.name.startswith("execute:")
        ]
        assert rows_of(strategy.warehouse) == full_rebuild_rows(small_world, cori)


class TestFallbacks:
    def test_first_build_without_lineage(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_untracked_mutation_forces_rebuild(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        # Mutate WITHOUT telling the source: the feed can no longer vouch.
        eav = cori.db.table("cori_eav")
        eav.update(
            lambda r: r["entity"] == "procedure"
            and r["record_id"] == 1
            and r["attribute"] == "smoking",
            {"value": "Never"},
        )
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_definition_change_forces_rebuild(self, small_world, cori):
        warehouse = Warehouse()
        job = make_job(small_world, cori)
        SelectiveStrategy(job, warehouse, ["cori_habits_cancer"]).build()
        widened = SelectiveStrategy(
            make_job(small_world, cori),
            warehouse,
            ["cori_habits_cancer", "cori_ex_smoker_ever"],
        )
        widened.build(incremental=True)
        schema = warehouse.table("mat_procedure").schema
        assert "cori_ex_smoker_ever" in schema.column_names

    def test_foreign_lineage_forces_rebuild(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        lineage = warehouse.lineage("mat_procedure")
        lineage["sources"][cori.name] = 10**9  # version from another life
        warehouse.set_lineage("mat_procedure", lineage)
        FullStrategy(make_job(small_world, cori), warehouse).build(incremental=True)
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)


def swap_habits4(job, domain):
    """Replace the ``habits4`` domain the habits classifiers target."""
    job.schema.entity("Procedure").attribute("Smoking").domains["habits4"] = domain


class TestDomainChanges:
    """A stored column's domain is part of its definition: a refresh over a
    changed domain rebuilds, and a rebuild that raises keeps what was
    there."""

    def test_a_domain_change_forces_a_rebuild(self, small_world, cori):
        warehouse = Warehouse()
        job = make_job(small_world, cori)
        strategy = FullStrategy(job, warehouse)
        strategy.build()
        widened = Domain.categorical(
            "habits4", ["None", "Light", "Moderate", "Heavy", "Unknown"]
        )
        swap_habits4(job, widened)
        attrs = build_decision(strategy)
        assert attrs["decision"] == "full_fallback"
        assert attrs["fallback_reason"] == "definition_changed"
        assert build_decision(strategy)["decision"] == "incremental"

    def test_a_refresh_over_a_narrowed_domain_raises(self, small_world, cori):
        warehouse = Warehouse()
        job = make_job(small_world, cori)
        strategy = FullStrategy(job, warehouse)
        strategy.build()
        before = rows_of(warehouse)
        swap_habits4(job, Domain.categorical("habits4", ["A", "B"]))
        # Not an "incremental" refresh that keeps 'None'/'Heavy' rows the
        # new domain does not hold, but the rebuild, which raises.
        with pytest.raises(DomainError):
            strategy.build(incremental=True)
        assert rows_of(warehouse) == before

    def test_a_failed_build_keeps_the_previous_table(self, small_world, cori):
        warehouse = Warehouse()
        job = make_job(small_world, cori)
        strategy = FullStrategy(job, warehouse)
        strategy.build()
        columns = [c.name for c in job.classifiers]
        before = strategy.fetch(columns)
        lineage = warehouse.lineage("mat_procedure")
        assert before
        swap_habits4(job, Domain.categorical("habits4", ["A", "B"]))
        with pytest.raises(DomainError):
            strategy.build()
        assert strategy.fetch(columns) == before
        assert warehouse.lineage("mat_procedure") == lineage


class TestWarehouseLineage:
    def test_build_records_lineage(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        lineage = warehouse.lineage("mat_procedure")
        assert lineage is not None
        assert lineage["sources"] == {cori.name: cori.data_version()}
        assert lineage["fingerprint"]

    def test_a_refresh_writes_the_lineage_a_full_build_writes(
        self, small_world, cori
    ):
        warehouse = Warehouse()
        strategy = FullStrategy(make_job(small_world, cori), warehouse)
        strategy.build()
        insert_procedures(small_world, cori, 5)
        assert build_decision(strategy)["decision"] == "incremental"
        reference = Warehouse()
        FullStrategy(make_job(small_world, cori), reference).build()
        assert warehouse.lineage("mat_procedure") == reference.lineage(
            "mat_procedure"
        )
        assert warehouse.lineage("mat_procedure")["sources"] == {
            cori.name: cori.data_version()
        }

    def test_drop_table_forgets_lineage(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        warehouse.drop_table("mat_procedure")
        assert warehouse.lineage("mat_procedure") is None
        assert not warehouse.has_table("mat_procedure")

    def test_lineage_returns_copy(self, small_world, cori):
        warehouse = Warehouse()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        warehouse.lineage("mat_procedure")["fingerprint"] = "tampered"
        assert warehouse.lineage("mat_procedure")["fingerprint"] != "tampered"


def read_outcomes(action):
    """The ``result_memo`` of every ``guava.read`` span ``action`` traces."""
    from repro.obs import tracing

    with tracing() as tracer:
        action()
    return [
        span.attrs["result_memo"]
        for root in tracer.roots
        for span in root.walk()
        if span.name == "guava.read"
    ]


def build_decision(strategy, incremental=True):
    """Build under a tracer; the ``materialize.build`` span's attributes."""
    from repro.obs import tracing

    with tracing() as tracer:
        strategy.build(incremental=incremental)
    (span,) = [s for s in tracer.roots if s.name == "materialize.build"]
    return span.attrs


def enter_more(source, count, first, seed):
    session = source.session(first_record_id=first)
    for truth in generate_truths(count, seed=seed):
        session.enter("procedure", cori_procedure_values(truth))


class TestSharedDatabase:
    """A warehouse living in its source's own database (as a durable store
    shares one database between the two): the warehouse's writes must not
    look like untracked source mutations."""

    def test_refresh_after_a_round_without_entries_stays_incremental(
        self, small_world, cori
    ):
        warehouse = Warehouse(db=cori.db)
        strategy = FullStrategy(make_job(small_world, cori), warehouse)
        strategy.build()
        insert_procedures(small_world, cori, 3)
        assert build_decision(strategy)["decision"] == "incremental"
        # A round with no entries for this source: the refresh above wrote
        # warehouse rows into the shared database, which must not cost a
        # full rebuild now.
        attrs = build_decision(strategy)
        assert attrs["decision"] == "incremental"
        assert attrs["records_refreshed"] == 0
        enter_more(cori, 2, first=1000, seed=7)
        assert build_decision(strategy)["decision"] == "incremental"
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_source_version_ignores_other_tables(self, small_world, cori):
        warehouse = Warehouse(db=cori.db)
        before = cori.data_version()
        FullStrategy(make_job(small_world, cori), warehouse).build()
        assert cori.data_version() == before
        assert cori.changed_record_ids(before) == set()

    def test_feed_from_whole_database_versions_falls_back(self, small_world, cori):
        from repro.guava.source import ChangeFeedState
        from repro.relational import database_version

        warehouse = Warehouse(db=cori.db)
        strategy = FullStrategy(make_job(small_world, cori), warehouse)
        strategy.build()
        # A feed recovered from a tree that versioned the whole database:
        # its accounted version counts the warehouse table too.
        legacy = ChangeFeedState.from_doc(
            {"floor": 0, "accounted": database_version(cori.db), "log": []}
        )
        assert legacy.accounted != cori.data_version()
        cori.adopt_feed(legacy)
        assert cori.changed_record_ids(0) is None
        attrs = build_decision(strategy)
        assert attrs["decision"] == "full_fallback"
        assert attrs["fallback_reason"] == f"untracked_changes:{cori.name}"
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)

    def test_lineage_in_whole_database_versions_falls_back(self, small_world, cori):
        warehouse = Warehouse(db=cori.db)
        strategy = FullStrategy(make_job(small_world, cori), warehouse)
        strategy.build()
        lineage = warehouse.lineage("mat_procedure")
        del lineage["versions"]  # written before sources versioned their tables
        warehouse.set_lineage("mat_procedure", lineage)
        insert_procedures(small_world, cori, 2)
        attrs = build_decision(strategy)
        assert attrs["fallback_reason"] == "whole_database_versions"
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)
        # The rebuild wrote today's lineage, so the next refresh is
        # incremental again.
        enter_more(cori, 1, first=1000, seed=5)
        assert build_decision(strategy)["decision"] == "incremental"
        assert rows_of(warehouse) == full_rebuild_rows(small_world, cori)
