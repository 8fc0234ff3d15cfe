"""Columnar snapshots: roundtrip fidelity, atomicity, corruption detection."""

from datetime import date

import pytest

from repro.errors import SnapshotCorruptionError
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.snapshots import (
    CHUNK_ROWS,
    _frame,
    _read_frames,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_lsn,
    write_snapshot,
)


def _typed_db(rows=10) -> Database:
    db = Database("snaptest")
    table = db.create_table(
        TableSchema(
            "mixed",
            (
                Column("id", DataType.INTEGER, nullable=False),
                Column("name", DataType.TEXT),
                Column("score", DataType.FLOAT),
                Column("ok", DataType.BOOLEAN),
                Column("day", DataType.DATE),
            ),
            primary_key=("id",),
        )
    )
    for i in range(rows):
        table.insert(
            {
                "id": i,
                "name": None if i % 7 == 0 else f"n{i % 3}",
                "score": i * 0.5,
                "ok": i % 2 == 0,
                "day": None if i % 5 == 0 else date(2004, 1, 1 + i % 28),
            }
        )
    return db


def test_roundtrip_preserves_rows_types_and_order(tmp_path):
    db = _typed_db(50)
    path = write_snapshot(db, tmp_path, lsn=42)
    loaded, lsn, state = load_snapshot(path)
    assert lsn == 42 and state == {}
    original = db.table("mixed").rows()
    restored = loaded.table("mixed").rows()
    assert restored == original  # values, types (date objects), and order
    assert isinstance(restored[1]["day"], date)


def test_roundtrip_preserves_counters_exactly(tmp_path):
    db = _typed_db(20)
    table = db.table("mixed")
    table.create_index(("name",))
    table.update(lambda r: r["id"] < 5, {"score": 0.0})
    expected = (table.version, table.index_epoch)
    expected_epoch = db.epoch
    loaded, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
    got = loaded.table("mixed")
    assert (got.version, got.index_epoch) == expected
    assert loaded.epoch == expected_epoch
    assert loaded.structure_version == db.structure_version


def test_roundtrip_restores_index_metadata_and_lookups(tmp_path):
    db = _typed_db(30)
    db.table("mixed").create_index(("name", "ok"))
    loaded, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
    table = loaded.table("mixed")
    assert table.secondary_index_columns() == [("name", "ok")]
    assert table.lookup(("name", "ok"), ("n1", False)) == db.table("mixed").lookup(
        ("name", "ok"), ("n1", False)
    )


def test_roundtrip_preserves_state_document(tmp_path):
    db = _typed_db(1)
    state = {"meta": {"lineage/t": {"fingerprint": "abc"}}, "feeds": {}}
    _, _, restored = load_snapshot(write_snapshot(db, tmp_path, lsn=9, state=state))
    assert restored == state


def test_multi_chunk_tables_roundtrip(tmp_path):
    db = _typed_db(CHUNK_ROWS * 2 + 100)
    loaded, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
    assert loaded.table("mixed").rows() == db.table("mixed").rows()


def test_loaded_table_is_scan_ready_without_rebuild(tmp_path):
    db = _typed_db(10)
    loaded, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
    table = loaded.table("mixed")
    # The column cache was pre-seeded at the restored version: asking for
    # it must not flip the version or rebuild.
    columns = table.column_snapshot()
    assert columns["id"] == [row["id"] for row in db.table("mixed").rows()]


def test_empty_table_roundtrip(tmp_path):
    db = Database("empty")
    db.create_table(
        TableSchema("bare", (Column("x", DataType.INTEGER),))
    )
    loaded, _, _ = load_snapshot(write_snapshot(db, tmp_path, lsn=1))
    assert loaded.table("bare").rows() == []


def test_snapshot_names_sort_by_lsn(tmp_path):
    db = _typed_db(1)
    write_snapshot(db, tmp_path, lsn=90)
    write_snapshot(db, tmp_path, lsn=1100)
    write_snapshot(db, tmp_path, lsn=7)
    assert [snapshot_lsn(p) for p in list_snapshots(tmp_path)] == [7, 90, 1100]


def test_prune_keeps_newest(tmp_path):
    db = _typed_db(1)
    for lsn in (10, 20, 30, 40):
        write_snapshot(db, tmp_path, lsn=lsn)
    removed = prune_snapshots(tmp_path, keep=2)
    assert [snapshot_lsn(p) for p in removed] == [10, 20]
    assert [snapshot_lsn(p) for p in list_snapshots(tmp_path)] == [30, 40]


def test_temp_files_are_not_listed_as_snapshots(tmp_path):
    db = _typed_db(1)
    path = write_snapshot(db, tmp_path, lsn=5)
    (tmp_path / (path.name + ".tmp")).write_bytes(b"partial")
    assert list_snapshots(tmp_path) == [path]


@pytest.mark.parametrize("cut_fraction", [0.0, 0.3, 0.9])
def test_truncated_snapshot_is_loud(tmp_path, cut_fraction):
    db = _typed_db(200)
    path = write_snapshot(db, tmp_path, lsn=1)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * cut_fraction)])
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


def test_bitflipped_snapshot_is_loud(tmp_path):
    db = _typed_db(100)
    path = write_snapshot(db, tmp_path, lsn=1)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x40
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


def test_missing_terminator_is_loud(tmp_path):
    db = _typed_db(5)
    path = write_snapshot(db, tmp_path, lsn=1)
    data = path.read_bytes()
    # Drop exactly the terminator frame (the last one).
    from repro.storage.snapshots import HEADER_LEN

    offset = 0
    frames = []
    while offset < len(data):
        length = int.from_bytes(data[offset + 2 : offset + 6], "big")
        frames.append(offset)
        offset += HEADER_LEN + length
    path.write_bytes(data[: frames[-1]])
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


def test_unsupported_format_is_loud(tmp_path):
    db = _typed_db(1)
    path = write_snapshot(db, tmp_path, lsn=1)
    import json
    import zlib

    from repro.storage.snapshots import SNAP_MAGIC

    payload = json.dumps({"format": 99}).encode()
    frame = (
        SNAP_MAGIC
        + len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )
    path.write_bytes(frame)
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


@pytest.mark.parametrize("extra", [[99], []], ids=["longer", "shorter"])
def test_a_chunk_with_ragged_columns_is_loud(tmp_path, extra):
    """Every column of a chunk must hold one value per row: a well-framed
    chunk whose later column is longer (or shorter) than the first is a
    corrupt snapshot, not a table whose column cache disagrees with its
    rows."""
    db = Database("ragged")
    db.create_table(
        TableSchema("t", (Column("a", DataType.INTEGER), Column("b", DataType.INTEGER)))
    )
    db.insert("t", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    path = write_snapshot(db, tmp_path, lsn=1)
    frames = list(_read_frames(path))
    chunk = frames[1]
    assert chunk["columns"] == {"a": [1, 3], "b": [2, 4]}
    chunk["columns"]["b"] = [2, 4] + extra if extra else [2]
    path.write_bytes(b"".join(_frame(frame) for frame in frames))
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)
