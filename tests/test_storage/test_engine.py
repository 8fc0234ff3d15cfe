"""DurableStore: reopen fidelity, checkpoints, adapters, fallback paths."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from datetime import date
from pathlib import Path

import pytest

from repro.errors import RecoveryError
from repro.guava import GuavaSource
from repro.patterns import NaivePattern, PatternChain
from repro.relational.database import Database
from repro.relational.interpret import execute_interpreted
from repro.relational.query import Query, optimize, prepare_stream_plan
from repro.relational.schema import Column, TableSchema, schema_to_doc
from repro.relational.types import DataType
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.snapshots import (
    _frame,
    _read_frames,
    list_snapshots,
    snapshot_lsn,
    snapshot_name,
)
from repro.storage.wal import list_segments, segment_name
from repro.warehouse import Warehouse


def _events_schema() -> TableSchema:
    return TableSchema(
        "events",
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("kind", DataType.TEXT),
            Column("score", DataType.FLOAT),
            Column("day", DataType.DATE),
        ),
        primary_key=("id",),
    )


def _populate(store: DurableStore, rows: int = 60) -> None:
    table = store.db.create_table(_events_schema())
    for i in range(rows):
        table.insert(
            {
                "id": i,
                "kind": f"k{i % 4}",
                "score": i * 0.25,
                "day": date(2004, 1, 1 + i % 28),
            }
        )
    table.create_index(("kind",))
    table.update(lambda r: r["id"] % 9 == 0, {"score": -1.0})
    table.delete(lambda r: r["id"] % 13 == 12)
    store.commit()


class TestReopenFidelity:
    def test_reopen_restores_bit_identical_state(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store)
        expected = state_fingerprint(store.db)
        store.close()
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        assert reopened.report.cold_start is False
        reopened.close()

    def test_reopen_restores_versions_and_epochs(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store)
        table = store.db.table("events")
        expected = (
            table.version,
            table.index_epoch,
            store.db.epoch,
            store.db.structure_version,
        )
        store.close()
        reopened = DurableStore(tmp_path)
        got = reopened.db.table("events")
        assert (
            got.version,
            got.index_epoch,
            reopened.db.epoch,
            reopened.db.structure_version,
        ) == expected
        reopened.close()

    def test_all_four_executors_agree_on_recovered_db(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store)
        plan = (
            Query.table("events")
            .where("score >= 2.0 AND kind <> 'k3'")
            .select("id", "kind", "score")
            .order_by("-score", "id")
            .plan
        )
        expected = execute_interpreted(plan, store.db)
        store.close()
        db = DurableStore(tmp_path).db
        assert execute_interpreted(plan, db) == expected
        assert prepare_stream_plan(plan, db).execute(db) == expected
        assert optimize(plan, db).execute(db) == expected
        assert plan.execute(db) == expected

    def test_close_without_commit_discards_uncommitted_tail(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store)
        committed = state_fingerprint(store.db)
        store.db.table("events").insert(
            {"id": 999, "kind": "late", "score": 0.0, "day": None}
        )
        store.close(commit=False)
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == committed
        assert reopened.report.discarded_uncommitted > 0
        reopened.close()

    def test_mutations_after_reopen_keep_logging(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store)
        store.close()
        second = DurableStore(tmp_path)
        second.db.table("events").insert(
            {"id": 1000, "kind": "new", "score": 1.0, "day": date(2004, 6, 1)}
        )
        second.commit()
        expected = state_fingerprint(second.db)
        second.close()
        third = DurableStore(tmp_path)
        assert state_fingerprint(third.db) == expected
        third.close()


class TestCheckpoints:
    def test_snapshot_bounds_replay(self, tmp_path):
        """Recovery never replays more WAL than written since the snapshot."""
        store = DurableStore(tmp_path)
        _populate(store)
        store.snapshot()
        table = store.db.table("events")
        table.insert({"id": 2000, "kind": "post", "score": 9.0, "day": None})
        table.insert({"id": 2001, "kind": "post", "score": 9.5, "day": None})
        store.commit()
        expected = state_fingerprint(store.db)
        store.close()
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        assert reopened.report.snapshot is not None
        # Exactly the two inserts and the commit record — nothing older.
        assert reopened.report.replayed == 3
        assert reopened.report.skipped == 0
        reopened.close()

    def test_reopen_after_second_snapshot_skips_nothing(self, tmp_path):
        """Recovery starts at the segment the newest snapshot rotated to."""
        store = DurableStore(tmp_path)
        _populate(store)
        store.snapshot()
        store.db.table("events").insert(
            {"id": 3000, "kind": "mid", "score": 1.0, "day": None}
        )
        store.snapshot()
        store.db.table("events").insert(
            {"id": 3001, "kind": "post", "score": 2.0, "day": None}
        )
        store.commit()
        expected = state_fingerprint(store.db)
        store.close()
        newest = snapshot_lsn(list_snapshots(tmp_path)[-1])
        # One segment per retained snapshot interval; the first is gone.
        assert [p.name for p in list_segments(tmp_path)][-1] == segment_name(
            newest + 1
        )
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        assert reopened.report.skipped == 0
        assert reopened.report.segments_read == 1
        assert reopened.report.replayed == 2
        reopened.close()

    def test_log_ending_before_the_snapshot_starts_a_fresh_segment(self, tmp_path):
        """Lost log writes the snapshot covers must not leave an LSN gap."""
        store = DurableStore(tmp_path, fsync="never")
        _populate(store, rows=5)
        store.snapshot()
        store.db.table("events").insert(
            {"id": 600, "kind": "lost", "score": 0.0, "day": None}
        )
        store.commit()
        store.snapshot()
        expected = state_fingerprint(store.db)
        store.close()
        sealed, active = list_segments(tmp_path)
        # Writes the newest snapshot covers never reached the log (an OS
        # crash under fsync="never"): appends must not continue there.
        sealed.write_bytes(b"")
        active.unlink()
        store = DurableStore(tmp_path)
        assert state_fingerprint(store.db) == expected
        assert store.wal.path == active
        store.db.table("events").insert(
            {"id": 601, "kind": "after", "score": 1.0, "day": None}
        )
        store.commit()
        expected = state_fingerprint(store.db)
        store.close()
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        reopened.close()

    def test_snapshot_rotates_without_reading_the_log(self, tmp_path, monkeypatch):
        import repro.storage.wal as wal_module

        store = DurableStore(tmp_path)
        _populate(store)

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint decoded the log")

        monkeypatch.setattr(wal_module, "read_wal", refuse)
        lsn = snapshot_lsn(store.snapshot())
        monkeypatch.undo()
        assert store.wal.path == tmp_path / segment_name(lsn + 1)
        assert list_segments(tmp_path) == [store.wal.path]
        store.close()

    def test_snapshot_only_recovery_reads_no_wal(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store)
        store.snapshot()
        expected = state_fingerprint(store.db)
        store.close(commit=False)  # nothing uncommitted: close is clean
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        assert reopened.report.replayed == 0
        reopened.close()

    def test_prune_keeps_two_snapshots(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=10)
        for i in range(4):
            store.db.table("events").insert(
                {"id": 100 + i, "kind": "x", "score": 0.0, "day": None}
            )
            store.snapshot()
        assert len(list_snapshots(tmp_path)) == 2
        store.close()

    def test_fallback_to_older_snapshot_on_corruption(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=20)
        store.snapshot()
        store.db.table("events").insert(
            {"id": 500, "kind": "y", "score": 1.0, "day": None}
        )
        store.snapshot()
        expected = state_fingerprint(store.db)
        store.close(commit=False)
        newest = list_snapshots(tmp_path)[-1]
        newest.write_bytes(newest.read_bytes()[:50])
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        assert len(reopened.report.snapshot_fallbacks) == 1
        assert reopened.report.snapshot == str(list_snapshots(tmp_path)[0])
        reopened.close()

    def test_all_snapshots_corrupt_with_full_wal_recovers(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=15)
        expected = state_fingerprint(store.db)
        store.close()
        # A corrupt snapshot appears, but the WAL still reaches back to
        # lsn 1 (no checkpoint ever pruned it): full replay must succeed.
        (tmp_path / snapshot_name(3)).write_bytes(b"garbage")
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        assert len(reopened.report.snapshot_fallbacks) == 1
        reopened.close()

    def test_all_snapshots_corrupt_with_pruned_wal_fails_loudly(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=15)
        store.snapshot()  # prunes the WAL below the snapshot LSN
        store.close(commit=False)
        for path in list_snapshots(tmp_path):
            path.write_bytes(b"garbage")
        with pytest.raises(RecoveryError):
            DurableStore(tmp_path)


class TestFormat:
    def _legacy(self, directory: Path) -> Path:
        directory.mkdir(exist_ok=True)
        legacy = directory / "wal.log"
        legacy.write_bytes(b"")
        return legacy

    def test_single_file_wal_is_refused(self, tmp_path):
        legacy = self._legacy(tmp_path)
        with pytest.raises(RecoveryError, match="wal.log"):
            DurableStore(tmp_path)
        assert legacy.exists()
        assert list_segments(tmp_path) == []

    def test_cli_refuses_single_file_wal_without_traceback(self, tmp_path):
        self._legacy(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        argv = [sys.executable, "-m", "repro", "storage", "recover"]
        proc = subprocess.run(
            argv + ["--dir", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "RecoveryError" in proc.stderr and "wal.log" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fresh_store_starts_segment_one(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=3)
        store.close()
        assert list_segments(tmp_path) == [tmp_path / segment_name(1)]


class TestPartitionedStores:
    """Stores written while tables could be partitioned.  Partitions were
    views over one row store, so an unpartitioned store recovers to the
    same rows; a partitioned one fails with a typed error."""

    HASH = {"kind": "hash", "column": "kind", "partitions": 3}

    @staticmethod
    def _append_segment(directory: Path, store_next_lsn: int, records) -> None:
        """Frame ``records`` (then a commit) as the next WAL segment."""
        data = b""
        lsn = store_next_lsn
        for record in [*records, {"op": "commit"}]:
            payload = json.dumps({"lsn": lsn, **record}).encode()
            data += (
                b"RW"
                + len(payload).to_bytes(4, "big")
                + zlib.crc32(payload).to_bytes(4, "big")
                + payload
            )
            lsn += 1
        (directory / segment_name(store_next_lsn)).write_bytes(data)

    @staticmethod
    def _rewrite_manifest(path: Path, change) -> None:
        frames = list(_read_frames(path))
        for meta in frames[0]["tables"]:
            change(meta)
        path.write_bytes(b"".join(_frame(frame) for frame in frames))

    def _closed_store(self, directory: Path) -> int:
        store = DurableStore(directory)
        _populate(store, rows=12)
        next_lsn = store.last_lsn + 1
        store.close()
        return next_lsn

    def test_a_repartition_record_is_an_unknown_operation(self, tmp_path):
        next_lsn = self._closed_store(tmp_path)
        record = {"op": "repartition", "table": "events", "partitioning": self.HASH}
        self._append_segment(tmp_path, next_lsn, [record])
        with pytest.raises(RecoveryError, match="unknown WAL operation 'repartition'"):
            DurableStore(tmp_path)

    def test_a_partitioned_create_table_record_is_refused(self, tmp_path):
        next_lsn = self._closed_store(tmp_path)
        schema = schema_to_doc(_events_schema())
        schema["name"] = "partitioned"
        schema["partitioning"] = self.HASH
        self._append_segment(
            tmp_path, next_lsn, [{"op": "create_table", "schema": schema}]
        )
        with pytest.raises(RecoveryError, match="partitioned"):
            DurableStore(tmp_path)

    def test_a_partitioned_snapshot_schema_is_refused(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=12)
        store.snapshot()
        store.close()
        (path,) = list_snapshots(tmp_path)
        self._rewrite_manifest(path, lambda meta: meta.update(partitioning=self.HASH))
        with pytest.raises(RecoveryError, match="partitioned"):
            DurableStore(tmp_path)

    def test_a_stored_partition_epoch_is_ignored(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=30)
        store.snapshot()
        rows = store.db.table("events").rows()
        expected = state_fingerprint(store.db)
        store.close()
        (path,) = list_snapshots(tmp_path)
        self._rewrite_manifest(path, lambda meta: meta.update(partition_epoch=2))
        reopened = DurableStore(tmp_path)
        assert reopened.report.snapshot == str(path)
        assert reopened.db.table("events").rows() == rows
        assert state_fingerprint(reopened.db) == expected
        reopened.close()


class TestMeta:
    def test_meta_roundtrip_across_reopen(self, tmp_path):
        store = DurableStore(tmp_path)
        store.set_meta("lineage/t", {"fingerprint": "abc", "versions": {"s": 3}})
        store.set_meta("doomed", {"x": 1})
        store.set_meta("doomed", None)
        store.commit()
        store.close()
        reopened = DurableStore(tmp_path)
        assert reopened.get_meta("lineage/t") == {
            "fingerprint": "abc",
            "versions": {"s": 3},
        }
        assert reopened.get_meta("doomed") is None
        reopened.close()

    def test_meta_survives_snapshot_then_reopen(self, tmp_path):
        store = DurableStore(tmp_path)
        store.set_meta("k", {"v": 7})
        store.snapshot()
        store.close(commit=False)
        reopened = DurableStore(tmp_path)
        assert reopened.get_meta("k") == {"v": 7}
        reopened.close()


class TestSourceAdapter:
    def _source(self, fig2_tool, db):
        chain = PatternChain(fig2_tool.naive_schemas(), [NaivePattern()])
        return GuavaSource("clinic", fig2_tool, chain, db=db)

    def test_change_feed_survives_reopen(self, tmp_path, fig2_tool):
        store = DurableStore(tmp_path)
        source = self._source(fig2_tool, store.db)
        store.attach_source(source)
        v0 = source.data_version()
        session = source.session()
        session.enter("procedure", {"smoking": "Current", "frequency": 1.5})
        session.enter("procedure", {"smoking": "Never"})
        store.commit()
        store.close()

        reopened = DurableStore(tmp_path)
        recovered = self._source(fig2_tool, reopened.db)
        reopened.attach_source(recovered)
        assert recovered.changed_record_ids(v0) == {1, 2}
        assert recovered.changed_record_ids(recovered.data_version()) == set()
        reopened.close()

    def test_feed_survives_via_snapshot_state(self, tmp_path, fig2_tool):
        store = DurableStore(tmp_path)
        source = self._source(fig2_tool, store.db)
        store.attach_source(source)
        v0 = source.data_version()
        source.session().enter("procedure", {"smoking": "Never"})
        store.snapshot()
        store.close(commit=False)
        reopened = DurableStore(tmp_path)
        assert reopened.report.replayed == 0  # feed came from the snapshot
        recovered = self._source(fig2_tool, reopened.db)
        reopened.attach_source(recovered)
        assert recovered.changed_record_ids(v0) == {1}
        reopened.close()

    def test_lookup_codes_survive_reopen(self, tmp_path):
        """A Lookup chain rebuilt over a reopened store keeps the codes it
        assigned: later entries reuse them and new labels get new codes."""
        from repro.clinical import generate_truths
        from repro.clinical.vendors import (
            build_endopro_chain,
            build_endopro_tool,
            endopro_values,
        )
        from repro.guava import GTreeQuery, translate_query

        truths = generate_truths(30, seed=4)

        def open_source():
            store = DurableStore(tmp_path, fsync="never")
            tool = build_endopro_tool()
            source = GuavaSource("endopro", tool, build_endopro_chain(tool), db=store.db)
            store.attach_source(source)
            return store, source

        def enter(source, batch, first):
            session = source.session(first_record_id=first)
            for truth in batch:
                session.enter("endoscopy_report", endopro_values(truth))

        store, source = open_source()
        enter(source, truths[:10], 1)
        store.commit()
        store.close()
        store, source = open_source()
        enter(source, truths[10:], 11)
        query = GTreeQuery(source.gtree("endoscopy_report"))
        rows = source.execute(query)
        assert len(rows) == len(truths)
        assert rows == execute_interpreted(
            translate_query(query, source.chain), source.db
        )
        assert [row["reason"] for row in rows] == [
            endopro_values(truth).get("reason") for truth in truths
        ]
        store.close()

    def test_source_on_foreign_db_is_rejected(self, tmp_path, fig2_tool):
        store = DurableStore(tmp_path)
        stranger = self._source(fig2_tool, Database("elsewhere"))
        with pytest.raises(RecoveryError):
            store.attach_source(stranger)
        store.close()


class TestWarehouseAdapter:
    def test_lineage_survives_reopen(self, tmp_path):
        store = DurableStore(tmp_path)
        warehouse = Warehouse(db=store.db)
        store.attach_warehouse(warehouse)
        warehouse.ensure_table(
            TableSchema("mat_t", (Column("record_id", DataType.INTEGER),))
        )
        warehouse.set_lineage("mat_t", {"fingerprint": "f1", "versions": {"s": 2}})
        store.commit()
        store.close()

        reopened = DurableStore(tmp_path)
        recovered = Warehouse(db=reopened.db)
        reopened.attach_warehouse(recovered)
        assert recovered.lineage("mat_t") == {
            "fingerprint": "f1",
            "versions": {"s": 2},
        }
        assert recovered.has_table("mat_t")
        reopened.close()

    def test_dropping_table_clears_durable_lineage(self, tmp_path):
        store = DurableStore(tmp_path)
        warehouse = Warehouse(db=store.db)
        store.attach_warehouse(warehouse)
        warehouse.ensure_table(
            TableSchema("mat_t", (Column("record_id", DataType.INTEGER),))
        )
        warehouse.set_lineage("mat_t", {"fingerprint": "f1"})
        warehouse.drop_table("mat_t")
        store.commit()
        store.close()
        reopened = DurableStore(tmp_path)
        recovered = Warehouse(db=reopened.db)
        reopened.attach_warehouse(recovered)
        assert recovered.lineage("mat_t") is None
        assert not recovered.has_table("mat_t")
        reopened.close()

    def test_warehouse_on_foreign_db_is_rejected(self, tmp_path):
        store = DurableStore(tmp_path)
        with pytest.raises(RecoveryError):
            store.attach_warehouse(Warehouse())
        store.close()


class TestVerify:
    def test_verify_reports_healthy_store(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=10)
        store.snapshot()
        store.db.table("events").insert(
            {"id": 77, "kind": "v", "score": 0.5, "day": None}
        )
        store.commit()
        audit = store.verify()
        assert audit["wal"]["ok"] is True
        segments = audit["wal"]["segments"]
        assert [s["path"] for s in segments] == [
            str(p) for p in list_segments(tmp_path)
        ]
        lsn = snapshot_lsn(list_snapshots(tmp_path)[-1])
        assert segments[-1]["first_lsn"] == lsn + 1
        assert segments[-1]["last_lsn"] == store.committed_lsn
        assert segments[-1]["records"] == 2
        assert segments[-1]["torn_bytes"] == 0
        assert audit["wal"]["last_commit_lsn"] == store.committed_lsn
        assert audit["recovery"]["segments_read"] == 0
        assert all(s["ok"] for s in audit["snapshots"])
        assert audit["live"]["fingerprint"] == state_fingerprint(store.db)
        assert audit["live"]["committed_lsn"] == store.committed_lsn
        store.close()

    def test_verify_flags_damaged_snapshot_without_raising(self, tmp_path):
        store = DurableStore(tmp_path)
        _populate(store, rows=10)
        store.snapshot()
        store.db.table("events").insert(
            {"id": 88, "kind": "w", "score": 0.5, "day": None}
        )
        store.snapshot()
        # The older snapshot rots on disk while the store is open: verify
        # must report it, not raise, and still bless the newest one.
        older = list_snapshots(tmp_path)[0]
        older.write_bytes(older.read_bytes()[:40])
        audit = store.verify()
        flags = {s["path"]: s["ok"] for s in audit["snapshots"]}
        assert flags[str(older)] is False
        assert sum(ok for ok in flags.values()) == 1
        assert audit["wal"]["ok"] is True
        store.close()
