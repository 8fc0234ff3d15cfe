"""Tests for source change tracking and the monotone data version.

The change feed underwrites incremental materialization: it must either
enumerate exactly the records changed since a version, or admit it
cannot (returning ``None``) so consumers rebuild instead of trusting a
stale answer.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.guava import GuavaSource
from repro.patterns import NaivePattern, PatternChain
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.relational.database import Database

from repro.storage import DurableStore
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form, enter_fig2_records


class TestTableVersion:
    @pytest.fixture
    def table(self, empty_db):
        return empty_db.ensure_table(
            TableSchema("t", (Column("a", DataType.INTEGER),))
        )

    def test_starts_at_zero(self, table):
        assert table.version == 0

    def test_insert_bumps(self, table):
        table.insert({"a": 1})
        assert table.version == 1

    def test_update_bumps_only_on_match(self, table):
        table.insert({"a": 1})
        v = table.version
        table.update(lambda r: r["a"] == 99, {"a": 2})
        assert table.version == v  # nothing matched
        table.update(lambda r: r["a"] == 1, {"a": 2})
        assert table.version > v

    def test_delete_bumps_only_on_match(self, table):
        table.insert({"a": 1})
        v = table.version
        table.delete(lambda r: r["a"] == 99)
        assert table.version == v
        table.delete(lambda r: r["a"] == 1)
        assert table.version > v

    def test_tables_version_sums_the_named_tables(self, empty_db):
        t1 = empty_db.ensure_table(TableSchema("t1", (Column("a", DataType.INTEGER),)))
        t2 = empty_db.ensure_table(TableSchema("t2", (Column("a", DataType.INTEGER),)))
        v0 = empty_db.tables_version(["t1", "t2", "absent"])
        t1.insert({"a": 1})
        t2.insert({"a": 2})
        assert empty_db.tables_version(["t1", "t2", "absent"]) == v0 + 2
        assert empty_db.tables_version(["t2"]) == t2.version


class TestChangeFeed:
    def test_session_writes_are_tracked(self, naive_source):
        v0 = naive_source.data_version()
        enter_fig2_records(naive_source)
        changed = naive_source.changed_record_ids(v0)
        assert changed == {1, 2, 3}

    def test_since_current_version_is_empty(self, naive_source):
        enter_fig2_records(naive_source)
        assert naive_source.changed_record_ids(naive_source.data_version()) == set()

    def test_partial_span(self, naive_source):
        enter_fig2_records(naive_source)
        mid = naive_source.data_version()
        session = naive_source.session(first_record_id=4)
        session.enter("procedure", {"smoking": "Never"})
        assert naive_source.changed_record_ids(mid) == {4}

    def test_form_scoping(self, eav_source):
        enter_fig2_records(eav_source)
        assert eav_source.changed_record_ids(0, form="procedure") == {1, 2, 3}
        assert eav_source.changed_record_ids(0, form="other_form") == set()

    def test_untracked_mutation_returns_none(self, naive_source):
        enter_fig2_records(naive_source)
        v = naive_source.data_version()
        naive_source.db.table("procedure").delete(lambda r: True)
        assert naive_source.changed_record_ids(v) is None

    def test_track_change_reconciles_out_of_band_write(self, naive_source):
        enter_fig2_records(naive_source)
        v = naive_source.data_version()
        naive_source.db.table("procedure").update(
            lambda r: r["record_id"] == 1, {"smoking": "Never"}
        )
        naive_source.track_change(1, form="procedure")
        assert naive_source.changed_record_ids(v) == {1}

    def test_a_registered_write_vouches_for_an_unregistered_one_before_it(
        self, naive_source
    ):
        """A documented relaxation (DESIGN.md §5, "Result memo"):
        ``track_change(rid)`` accounts the current data version, so an
        unregistered direct write made before it is trusted away.  Direct
        writes must each be registered; session entries detect this."""
        enter_fig2_records(naive_source)
        v = naive_source.data_version()
        procedure = naive_source.db.table("procedure")
        procedure.delete(lambda r: r["record_id"] == 2)  # not registered
        procedure.update(lambda r: r["record_id"] == 1, {"smoking": "Never"})
        naive_source.track_change(1, form="procedure")
        assert naive_source.changed_record_ids(v) == {1}

    def test_anonymous_change_poisons_the_span(self, naive_source):
        enter_fig2_records(naive_source)
        v = naive_source.data_version()
        naive_source.db.table("procedure").delete(lambda r: r["record_id"] == 2)
        naive_source.track_change(None)  # "something changed, unknown what"
        assert naive_source.changed_record_ids(v) is None
        # But the feed recovers for spans after the anonymous change.
        v2 = naive_source.data_version()
        session = naive_source.session(first_record_id=9)
        session.enter("procedure", {"smoking": "Never"})
        assert naive_source.changed_record_ids(v2) == {9}

    def test_future_version_returns_none(self, naive_source):
        enter_fig2_records(naive_source)
        assert naive_source.changed_record_ids(naive_source.data_version() + 5) is None

    def test_data_version_is_monotone(self, naive_source):
        versions = [naive_source.data_version()]
        session = naive_source.session()
        for values in ({"smoking": "Never"}, {"smoking": "Current", "frequency": 1.0}):
            session.enter("procedure", values)
            versions.append(naive_source.data_version())
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_an_untracked_write_before_a_session_entry_is_not_hidden(
        self, naive_source
    ):
        enter_fig2_records(naive_source)
        v = naive_source.data_version()
        naive_source.db.table("procedure").delete(lambda r: r["record_id"] == 2)
        naive_source.session(first_record_id=9).enter("procedure", {"smoking": "Never"})
        # The entry's note must not vouch for the delete before it.
        assert naive_source.changed_record_ids(v) is None


def _durable_source(directory):
    tool = ReportingTool("feed", "1.0", forms=[build_fig2_form()])
    store = DurableStore(directory, name="feed", fsync="never")
    source = GuavaSource(
        "feed", tool, PatternChain(tool.naive_schemas(), [NaivePattern()]), db=store.db
    )
    store.attach_source(source)
    return store, source


def _scanned(source, since, form=None):
    """``changed_record_ids`` by a linear scan of the log (the reference)."""
    return {
        rid
        for version, logged_form, rid in source.feed.log
        if version > since and (form is None or logged_form in (None, form))
    }


class TestFeedOrder:
    """``changed_record_ids`` bisects the log, so its order is pinned."""

    def test_versions_never_decrease_through_pruning_and_recovery(self, tmp_path):
        with mock.patch("repro.guava.source.CHANGE_LOG_LIMIT", 6):
            store, source = _durable_source(tmp_path)
            session = source.session()
            for smoking in ("Never", "Current", "Previous", "Never"):
                session.enter("procedure", {"smoking": smoking})
            store.snapshot()
            for smoking in ("Current",) * 5:
                session.enter("procedure", {"smoking": smoking})
            source.db.table("procedure").update(
                lambda r: r["record_id"] == 2, {"smoking": "Never"}
            )
            source.track_change(2, form="procedure")
            source.track_change(3)  # no form: matches every form
            session.enter("procedure", {"smoking": "Never"})
            assert source.feed.floor > 0  # pruned
            kept = list(source.feed.log)
            store.commit()
            store.close()

            store, recovered = _durable_source(tmp_path)
            assert recovered.feed.log == kept
            versions = [version for version, _, _ in kept]
            assert versions == sorted(versions)
            for since in range(recovered.feed.floor, recovered.data_version() + 1):
                for form in (None, "procedure", "other"):
                    assert recovered.changed_record_ids(since, form) == _scanned(
                        recovered, since, form
                    )
            store.close()
