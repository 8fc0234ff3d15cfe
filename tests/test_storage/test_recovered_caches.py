"""Restores reach everything computed afterwards.

A recovered table can carry a *rewound* version counter and an unchanged
row count while holding entirely different data.  Nothing may serve the
pre-restore extent on the strength of an equal version: the next
snapshot must write the restored rows, and a recovered database must
not reuse a plan cached before the crash.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.relational.query import Query
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.engine import DurableStore
from repro.storage.snapshots import load_snapshot, write_snapshot
from tests.conftest import by_column


def _schema() -> TableSchema:
    return TableSchema(
        "t",
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("kind", DataType.TEXT),
            Column("score", DataType.FLOAT),
        ),
        primary_key=("id",),
    )


def _fill(table, rows, kinds=("a", "b"), score=1.0):
    for i in range(rows):
        table.insert({"id": i, "kind": kinds[i % len(kinds)], "score": score * i})


class TestRestoreDropsCaches:
    def test_same_version_different_data_reaches_the_next_snapshot(self, tmp_path):
        """The poisoning scenario: a snapshot written at version V, then a
        restore lands different data at the *same numeric* version V; the
        next snapshot must hold the restored rows."""
        db = Database("d")
        table = db.create_table(_schema())
        _fill(table, 300, kinds=("a", "b"))
        version = table.version
        first, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
        assert first.table("t").rows()[-1]["score"] == 299.0

        replacement = [
            {"id": i, "kind": f"k{i}", "score": 1000.0 + i} for i in range(300)
        ]
        table.restore_counters(version)  # same version, on purpose
        table.restore_extent(by_column(table, replacement))
        assert table.version == version
        second, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=2))
        assert second.table("t").version == version
        assert second.table("t").rows() == replacement


class TestRecoveredStoreRebuilds:
    def test_plan_cache_cannot_cross_recovery(self, tmp_path):
        """The recovered database starts with an empty plan cache, and the
        recovered plan epoch keys any new entries, so a pre-crash cached plan
        can never serve a post-recovery query."""
        store = DurableStore(tmp_path)
        table = store.db.create_table(_schema())
        _fill(table, 30)
        query = Query.table("t").where("kind = 'a'").select("id")
        before = query.execute(store.db)  # populates the plan cache
        epoch = store.db.plan_epoch
        store.commit()
        store.close()
        reopened = DurableStore(tmp_path)
        try:
            assert reopened.db.plan_cache_get("anything", epoch) is None
            assert reopened.db.plan_epoch == epoch
            assert reopened.db.plan_cache_get("anything", epoch) is None
            assert query.execute(reopened.db) == before
        finally:
            reopened.close()
