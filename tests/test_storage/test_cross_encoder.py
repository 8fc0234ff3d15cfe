"""A store written by one WAL encoder recovers under the other.

``storage/wal.py`` serializes log records with ``orjson`` when it is
installed and with the stdlib ``json`` module otherwise, and
``storage/snapshots.py`` imports the same two functions by name.  The two
encoders do not write the same bytes (``orjson`` writes non-ASCII text as
UTF-8, the stdlib escapes it), so a store moved between environments must
still recover to the same state.  Each case writes a snapshot plus a WAL
tail with one encoder and recovers it with the other.  Every test here
needs ``orjson`` and is skipped where it is not installed.
"""

from __future__ import annotations

import json
from datetime import date

import pytest

from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage import snapshots, wal
from repro.storage.engine import DurableStore, state_fingerprint

pytestmark = pytest.mark.skipif(wal.orjson is None, reason="orjson is not installed")

#: name -> (dumps, loads); the orjson pair is the module's own.
ENCODERS = {
    "stdlib": (wal._dumps_stdlib, json.loads),
    "orjson": (wal._dumps, wal._loads),
}

TEXTS = [
    "plain",
    "naïve café",
    "日本語のテキスト",
    "emoji 🩺 and ✓",
    'quote " and backslash \\',
    "line\nbreak\ttab   separator",
    "",
]
FLOATS = [0.1, -2.5, 1e-300, 1.7976931348623157e308, 123456789.0625, -0.0]

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


def _row(i: int) -> dict[str, object]:
    """Every fourth value of each nullable column is NULL."""
    return {
        "id": i,
        "name": None if i % 4 == 1 else TEXTS[i % len(TEXTS)],
        "score": None if i % 4 == 2 else FLOATS[i % len(FLOATS)],
        "seen": None if i % 4 == 3 else date(1999 + i % 30, 1 + i % 12, 1 + i % 28),
        "ok": None if i % 4 == 0 else i % 3 == 0,
    }


def _use(monkeypatch, name: str) -> None:
    dumps, loads = ENCODERS[name]
    monkeypatch.setattr(wal, "_dumps", dumps)
    monkeypatch.setattr(wal, "_loads", loads)
    monkeypatch.setattr(snapshots, "_dumps", dumps)
    monkeypatch.setattr(snapshots, "_wal_loads", loads)


def _write(directory, monkeypatch, encoder: str) -> tuple[str, list, dict]:
    """A snapshot, then a WAL tail of inserts, an update, a delete and a
    meta document; returns the fingerprint, rows and meta it left."""
    with monkeypatch.context() as patched:
        _use(patched, encoder)
        store = DurableStore(directory)
        table = store.db.create_table(SCHEMA)
        table.insert_many([_row(i) for i in range(40)])
        table.create_index(("name",))
        store.snapshot()
        table.insert_many([_row(i) for i in range(40, 70)])
        changes = {"name": "ünïcödé ✓", "score": None}
        table.update(lambda row: row["id"] % 5 == 0, changes)
        table.delete(lambda row: row["id"] % 11 == 10)
        meta = {"note": "naïve — 日本語", "at": "2004-02-29", "score": 0.1}
        meta["gap"] = None
        store.set_meta("lineage/mixed", meta)
        store.commit()
        fingerprint = state_fingerprint(store.db)
        rows = table.rows()
        store.close()
    # The tail holds the updated name in the writer's own encoding.
    tail = b"".join(path.read_bytes() for path in directory.glob("wal-*.log"))
    written = "✓".encode() if encoder == "orjson" else b"\\u2713"
    assert written in tail
    return fingerprint, rows, meta


@pytest.mark.parametrize("writer, reader", [("orjson", "stdlib"), ("stdlib", "orjson")])
def test_a_store_recovers_under_the_other_encoder(
    tmp_path, monkeypatch, writer, reader
):
    fingerprint, rows, meta = _write(tmp_path, monkeypatch, writer)
    _use(monkeypatch, reader)
    reopened = DurableStore(tmp_path)
    try:
        report = reopened.report
        assert report.cold_start is False
        assert report.snapshot is not None and report.replayed > 0
        assert state_fingerprint(reopened.db) == fingerprint
        assert reopened.db.table("mixed").rows() == rows
        assert reopened.get_meta("lineage/mixed") == meta
    finally:
        reopened.close()


def test_the_two_encoders_write_different_bytes():
    """Otherwise the cases above would not cross an encoding."""
    doc = {"row": _row(2), "text": TEXTS[2]}
    assert ENCODERS["orjson"][0](doc) != ENCODERS["stdlib"][0](doc)
    assert json.loads(ENCODERS["orjson"][0](doc)) == json.loads(
        ENCODERS["stdlib"][0](doc)
    )
