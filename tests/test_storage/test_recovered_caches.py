"""Restores drop every version-keyed cache.

A recovered table can carry a *rewound* version counter and an unchanged
row count while holding entirely different data.  A cache keyed on the
version — the table's column snapshot — would then serve the wrong
extent, so ``restore_extent`` / ``restore_counters`` must drop it
unconditionally, and anything computed afterwards must read the
recovered data.
"""

from __future__ import annotations

from repro.relational.cost import column_ndv
from repro.relational.database import Database
from repro.relational.query import Query
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.engine import DurableStore


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
    def test_same_version_different_data_rebuilds_the_column_snapshot(self):
        """The poisoning scenario: the snapshot built at version V, then a
        restore lands different data at the *same numeric* version V."""
        db = Database("d")
        table = db.create_table(_schema())
        _fill(table, 300, kinds=("a", "b"))
        version = table.version
        assert table.column_snapshot()["score"][-1] == 299.0

        replacement = [
            {"id": i, "kind": f"k{i}", "score": 1000.0 + i} for i in range(300)
        ]
        table.restore_counters(version)  # same version, on purpose
        table.restore_extent(replacement)
        assert table.version == version
        assert table.column_snapshot()["score"][-1] == 1299.0

    def test_planning_estimates_do_not_ride_the_staleness_window(self):
        """Row count unchanged, data entirely different: NDV must read the
        restored extent."""
        db = Database("d")
        table = db.create_table(_schema())
        _fill(table, 60, kinds=("x", "y", "z"))
        ndv, _ = column_ndv(table, "kind")
        assert ndv == 3.0
        replacement = [
            {"id": i, "kind": f"k{i}", "score": float(i)} for i in range(60)
        ]
        table.restore_counters(table.version)
        table.restore_extent(replacement)
        ndv, _ = column_ndv(table, "kind")
        assert ndv == 60.0


class TestRecoveredStoreRebuilds:
    def _mutate_snapshot_recover(self, tmp_path):
        store = DurableStore(tmp_path)
        table = store.db.create_table(_schema())
        _fill(table, 300, kinds=("a", "b", "c"))
        # Warm the column snapshot, then mutate past it.
        table.column_snapshot()
        table.update(lambda r: True, {"score": -5.0})
        table.delete(lambda r: r["id"] >= 280)
        store.snapshot()
        store.close()
        return DurableStore(tmp_path)

    def test_column_snapshot_holds_the_recovered_extent(self, tmp_path):
        store = self._mutate_snapshot_recover(tmp_path)
        try:
            scores = store.db.table("t").column_snapshot()["score"]
            assert scores == [-5.0] * 280
        finally:
            store.close()

    def test_ndv_profiles_recovered_extent(self, tmp_path):
        store = self._mutate_snapshot_recover(tmp_path)
        try:
            ndv, _ = column_ndv(store.db.table("t"), "kind")
            assert ndv == 3.0
        finally:
            store.close()

    def test_plan_cache_cannot_cross_recovery(self, tmp_path):
        """The recovered database starts with an empty plan cache, and the
        recovered epoch keys any new entries, so a pre-crash cached plan
        can never serve a post-recovery query."""
        store = DurableStore(tmp_path)
        table = store.db.create_table(_schema())
        _fill(table, 30)
        query = Query.table("t").where("kind = 'a'").select("id")
        before = query.execute(store.db)  # populates the plan cache
        epoch = store.db.epoch
        store.commit()
        store.close()
        reopened = DurableStore(tmp_path)
        try:
            assert reopened.db.plan_cache_get("anything", epoch) is None
            assert reopened.db.epoch == epoch
            assert reopened.db.plan_cache_get("anything", epoch) is None
            assert query.execute(reopened.db) == before
        finally:
            reopened.close()
