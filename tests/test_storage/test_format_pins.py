"""The storage formats, pinned.

A fixed database holding every column type, NULLs, dates, a secondary
index, an update and a delete must write a snapshot file whose sha256
(under each encoder) and whose ``state_fingerprint`` equal the digests
recorded when tables stored rows as dicts: how a table keeps its rows in
memory is no part of either format.  The WAL logs an inserted row as a
JSON array in schema order, and replay still reads the object rows that
older logs hold: a hand-framed segment of object-form ``insert`` and
``insert_many`` records recovers to the state its array form does.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from datetime import date

import pytest

from repro.errors import RecoveryError
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema, schema_to_doc
from repro.relational.types import DataType
from repro.storage import snapshots, wal
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.snapshots import write_snapshot
from repro.storage.wal import segment_name

SCHEMA = TableSchema(
    "mixed",
    (
        Column("id", DataType.INTEGER, nullable=False),
        Column("name", DataType.TEXT),
        Column("score", DataType.FLOAT),
        Column("seen", DataType.DATE),
        Column("ok", DataType.BOOLEAN),
    ),
    primary_key=("id",),
)
EAV = TableSchema(
    "eav",
    (
        Column("record_id", DataType.INTEGER, nullable=False),
        Column("attribute", DataType.TEXT, nullable=False),
        Column("value", DataType.TEXT),
    ),
)

#: Recorded on the commit before rows were stored as tuples.
SNAPSHOT_SHA256 = {
    "stdlib": "08ed66ab0f0b1761982d06d9ecb65e9d2973abf1a7668f3a4f0b27d6747aa601",
    "orjson": "bf936b048d34c3fa369168f366a0c0bba25b3b7192300646c51237be31e7ba41",
}
FINGERPRINT = "b495ff4e8a4be4f4c2be7dc3e5bed5dd21cfb2304fcff1de556096374334d010"


def _row(i: int) -> dict[str, object]:
    """Every fourth value of each nullable column is NULL."""
    return {
        "id": i,
        "name": None if i % 4 == 1 else f"name {i} é",
        "score": None if i % 4 == 2 else i * 0.5 - 3.25,
        "seen": None if i % 4 == 3 else date(2004 + i % 3, 1 + i % 12, 1 + i % 28),
        "ok": None if i % 4 == 0 else i % 3 == 0,
    }


def _database() -> Database:
    db = Database("pinned")
    mixed = db.create_table(SCHEMA)
    mixed.insert_many([_row(i) for i in range(1100)])
    mixed.create_index(("ok",))
    mixed.update(lambda row: row["id"] % 7 == 0, {"name": "changed", "ok": False})
    mixed.delete(lambda row: row["id"] % 11 == 5)
    mixed.insert({"id": 5000, "score": "7.5", "seen": "2005-06-07", "ok": "true"})
    eav = db.create_table(EAV)
    eav.insert_many(
        [
            {"record_id": i // 3, "attribute": f"a{i % 3}", "value": None if i % 5 == 0 else str(i)}
            for i in range(30)
        ]
    )
    eav.create_index(("record_id",))
    eav.delete(lambda row: row["attribute"] == "a1" and row["record_id"] == 4)
    return db


@pytest.mark.parametrize("encoder", sorted(SNAPSHOT_SHA256))
def test_the_snapshot_bytes_are_pinned(tmp_path, monkeypatch, encoder):
    if encoder == "orjson":
        if wal.orjson is None:
            pytest.skip("orjson is not installed")
    else:
        monkeypatch.setattr(snapshots, "_dumps", wal._dumps_stdlib)
    path = write_snapshot(_database(), tmp_path, lsn=42)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SNAPSHOT_SHA256[encoder]


def test_the_fingerprint_is_pinned():
    assert state_fingerprint(_database()) == FINGERPRINT


def _segment(records: list[dict]) -> bytes:
    frames = []
    for lsn, record in enumerate(records, 1):
        payload = json.dumps({**record, "lsn": lsn}).encode("utf-8")
        header = len(payload).to_bytes(4, "big") + zlib.crc32(payload).to_bytes(4, "big")
        frames.append(wal.MAGIC + header + payload)
    return b"".join(frames)


def _logged(form: str) -> list[dict]:
    """The records of a short history, each row logged in ``form``."""

    def row(values: dict) -> object:
        if form == "object":
            return {key: values[key] for key in reversed(values)}
        return [values[name] for name in SCHEMA.column_names]

    rows = [{**_row(i), "seen": None} for i in range(1, 7)]
    return [
        {"op": "create_table", "schema": schema_to_doc(SCHEMA)},
        {"op": "insert_many", "table": "mixed", "rows": [row(r) for r in rows[:4]]},
        {"op": "insert", "table": "mixed", "row": row(rows[4])},
        {"op": "create_index", "table": "mixed", "columns": ["ok"]},
        {"op": "update", "table": "mixed", "positions": [1, 3], "changes": {"ok": True}},
        {"op": "delete", "table": "mixed", "positions": [0]},
        {"op": "insert", "table": "mixed", "row": row(rows[5])},
        {"op": "commit"},
    ]


def test_object_rows_replay_like_array_rows(tmp_path):
    fingerprints = {}
    for form in ("object", "array"):
        directory = tmp_path / form
        directory.mkdir()
        (directory / segment_name(1)).write_bytes(_segment(_logged(form)))
        store = DurableStore(directory, fsync="never")
        assert store.report.replayed == 8
        fingerprints[form] = state_fingerprint(store.db)
        rows = store.db.table("mixed").rows()
        store.close()
        assert [row["id"] for row in rows] == [2, 3, 4, 5, 6]
        assert [row["ok"] for row in rows] == [True, True, True, False, True]
    assert fingerprints["object"] == fingerprints["array"]


def test_the_log_holds_rows_as_arrays_in_schema_order(tmp_path):
    store = DurableStore(tmp_path, fsync="never")
    table = store.db.create_table(SCHEMA)
    table.insert_many([_row(1), _row(2)])
    table.insert({"ok": True, "id": 3})
    store.close()
    records, _ = wal.read_wal(wal.list_segments(tmp_path)[-1])
    inserts = [r for r in records if r["op"] in ("insert", "insert_many")]
    assert inserts[0]["rows"] == [
        [1, None, -2.75, "2005-02-02", False],
        [2, "name 2 é", None, "2006-03-03", False],
    ]
    assert inserts[1]["row"] == [3, None, None, None, True]


@pytest.mark.parametrize(
    "op, field, row",
    [
        ("insert", "row", [1, "x"]),
        ("insert_many", "rows", [[1, None, None, None, None, None]]),
        ("insert", "row", "1,x"),
        ("insert_many", "rows", [7]),
        ("insert_many", "rows", [None]),
    ],
)
def test_a_malformed_row_names_its_record(tmp_path, op, field, row):
    records = [
        {"op": "create_table", "schema": schema_to_doc(SCHEMA)},
        {"op": op, "table": "mixed", field: row},
        {"op": "commit"},
    ]
    (tmp_path / segment_name(1)).write_bytes(_segment(records))
    with pytest.raises(RecoveryError, match="lsn 2"):
        DurableStore(tmp_path, fsync="never")
