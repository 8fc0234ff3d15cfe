"""Batches in the log, and the logs and snapshots written before them.

A checked batch of rows is one ``insert_many`` WAL record; snapshot frames
are encoded with the WAL's codec.  Recovery must still read segments of
per-row ``insert`` records and snapshots from the stdlib-``json`` writer,
and a batch cut short by a crash must be lost whole.  Non-finite floats
have no JSON form, so no column stores them.
"""

from __future__ import annotations

import json
import math
from datetime import date

import pytest

from repro.errors import DataEntryError, TypeMismatchError
from repro.relational import Column, Database, DataType, Table, TableSchema
from repro.relational.schema import schema_to_doc
from repro.storage import DurableStore, snapshots
from repro.storage.engine import state_fingerprint
from repro.storage.snapshots import load_snapshot, write_snapshot
from repro.storage.wal import (
    HEADER_LEN,
    WriteAheadLog,
    list_segments,
    read_wal,
    segment_name,
)
from repro.ui import NumericBox
from tests.conftest import by_column

SCHEMA = TableSchema(
    "visits",
    (
        Column("id", DataType.INTEGER, nullable=False),
        Column("note", DataType.TEXT),
        Column("score", DataType.FLOAT),
        Column("seen", DataType.BOOLEAN),
        Column("day", DataType.DATE),
    ),
    primary_key=("id",),
)


def _row(n: int) -> dict:
    return {
        "id": n,
        "note": None if n % 4 == 0 else f"note {n}",
        "score": n * 0.25,
        "seen": n % 2 == 0,
        "day": None if n % 3 == 0 else date(2005, 1 + n % 12, 1 + n % 27),
    }


def _frames(path) -> list[tuple[int, int, dict]]:
    """(start, end, record) of every frame in a segment."""
    data = path.read_bytes()
    frames, offset = [], 0
    while offset < len(data):
        end = offset + HEADER_LEN + int.from_bytes(data[offset + 2 : offset + 6], "big")
        frames.append((offset, end, json.loads(data[offset + HEADER_LEN : end])))
        offset = end
    return frames


class TestNonFiniteFloats:
    @pytest.mark.parametrize("value", ["nan", float("nan"), float("inf"), "-inf", "1e999"])
    def test_coerce_refuses_them(self, value):
        with pytest.raises(TypeMismatchError, match="not a finite number"):
            DataType.FLOAT.coerce(value)

    def test_every_write_path_refuses_a_native_one(self):
        table = Table(SCHEMA)
        nan = {"id": 2, "score": float("nan")}
        with pytest.raises(TypeMismatchError):
            table.insert(nan)
        with pytest.raises(TypeMismatchError):
            table.check_batch([_row(1), nan])
        # insert_many keeps the row loop's prefix for its own callers.
        with pytest.raises(TypeMismatchError):
            table.insert_many([_row(1), {"id": 2, "score": float("-inf")}, _row(3)])
        assert [row["id"] for row in table.rows()] == [1]
        with pytest.raises(TypeMismatchError):
            table.update(lambda row: True, {"score": float("inf")})
        assert table.rows()[0]["score"] == 0.25

    def test_the_ui_refuses_them(self):
        box = NumericBox("size", "Size", integer=False)
        with pytest.raises(DataEntryError):
            box.validate(float("nan"))
        with pytest.raises(DataEntryError):
            box.validate("inf")

    def test_the_recovered_store_equals_the_live_one(self, tmp_path):
        store = DurableStore(tmp_path)
        table = store.db.create_table(SCHEMA)
        table.insert_many([_row(n) for n in range(1, 6)])
        for bad in ("nan", float("inf"), float("-inf")):
            with pytest.raises(TypeMismatchError):
                table.insert({"id": 9, "score": bad})
        table.insert({"id": 7, "score": -0.0})
        table.insert({"id": 8, "score": 1e308})
        store.commit()
        live = state_fingerprint(store.db)
        store.close()
        replayed = DurableStore(tmp_path)
        assert state_fingerprint(replayed.db) == live
        replayed.snapshot()
        replayed.close()
        loaded = DurableStore(tmp_path)
        assert loaded.report.snapshot is not None
        assert state_fingerprint(loaded.db) == live
        loaded.close()


class TestBatchRecords:
    def test_a_batch_is_one_record(self, tmp_path):
        store = DurableStore(tmp_path)
        table = store.db.create_table(SCHEMA)
        table.insert_many([_row(n) for n in range(1, 4)])
        table.append_checked(table.check_batch([_row(4), _row(5)]))
        store.close()
        records, _ = read_wal(list_segments(tmp_path)[-1])
        batches = [r for r in records if r["op"] == "insert_many"]
        # Each row is logged as an array in schema order: ``id`` first.
        assert [[row[0] for row in r["rows"]] for r in batches] == [[1, 2, 3], [4, 5]]
        assert not [r for r in records if r["op"] == "insert"]

    def test_a_torn_batch_is_lost_whole(self, tmp_path):
        store = DurableStore(tmp_path)
        table = store.db.create_table(SCHEMA)
        table.insert_many([_row(n) for n in range(1, 4)])
        store.commit()
        kept = table.rows()
        table.append_checked(table.check_batch([_row(n) for n in range(4, 9)]))
        store.commit()
        store.close()
        segment = list_segments(tmp_path)[-1]
        data = segment.read_bytes()
        frames = _frames(segment)
        (start, end, record), (_, commit_end, commit) = frames[-2], frames[-1]
        assert record["op"] == "insert_many" and commit["op"] == "commit"
        # A cut anywhere in the batch's frame or in the commit after it.
        cuts = {start + 1, start + HEADER_LEN, (start + end) // 2, end - 1, end}
        for cut in sorted(cuts | {commit_end - 1}):
            segment.write_bytes(data[:cut])
            recovered = DurableStore(tmp_path)
            assert recovered.db.table("visits").rows() == kept, cut
            recovered.close()
            segment.write_bytes(data)


class TestOldFormats:
    def test_a_log_of_per_row_inserts_recovers(self, tmp_path):
        # The log as written before batches: one insert record per row.
        reference = Database("durable")
        table = reference.create_table(SCHEMA)
        wal = WriteAheadLog(tmp_path / segment_name(1))
        wal.append({"op": "create_table", "schema": schema_to_doc(SCHEMA)})
        for n in range(1, 8):
            table.insert(_row(n))
            wal.append({"op": "insert", "table": "visits", "row": _row(n)})
        wal.append({"op": "commit"})
        wal.close()
        store = DurableStore(tmp_path)
        assert store.report.replayed == 9
        assert state_fingerprint(store.db) == state_fingerprint(reference)
        # New batches continue the old log, and both kinds replay together.
        store.db.table("visits").insert_many([_row(8), _row(9)])
        table.insert_many([_row(8), _row(9)])
        store.close()
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == state_fingerprint(reference)
        reopened.close()

    def test_a_stdlib_json_snapshot_loads(self, tmp_path, monkeypatch):
        store = DurableStore(tmp_path)
        store.db.create_table(SCHEMA).insert_many([_row(n) for n in range(1, 40)])
        store.set_meta("lineage/x", {"version": 3, "tables": ["visits"]})
        store.commit()
        live = state_fingerprint(store.db)

        def stdlib(doc):
            # The writer before snapshots shared the WAL's codec.
            return json.dumps(
                doc, separators=(",", ":"), default=date.isoformat
            ).encode("utf-8")

        monkeypatch.setattr(snapshots, "_dumps", stdlib)
        store.snapshot()
        monkeypatch.undo()
        store.close()
        reopened = DurableStore(tmp_path)
        assert reopened.report.snapshot is not None
        assert reopened.report.replayed == 0
        assert state_fingerprint(reopened.db) == live
        assert reopened.get_meta("lineage/x") == {"version": 3, "tables": ["visits"]}
        reopened.close()

    def test_a_stdlib_json_snapshot_keeps_its_nan(self, tmp_path, monkeypatch):
        # Tables filled before non-finite floats were refused may hold NaN,
        # which only the stdlib writer and reader spell.
        db = Database("old")
        table = db.create_table(SCHEMA)
        rows = [dict(_row(1), score=float("nan")), _row(2)]
        table.restore_extent(by_column(table, rows))
        monkeypatch.setattr(
            snapshots,
            "_dumps",
            lambda doc: json.dumps(doc, default=date.isoformat).encode("utf-8"),
        )
        path = write_snapshot(db, tmp_path, lsn=5)
        assert b"NaN" in path.read_bytes()
        loaded, lsn, _ = load_snapshot(path)
        scores = [row["score"] for row in loaded.table("visits").rows()]
        assert lsn == 5 and math.isnan(scores[0]) and scores[1] == 0.5
