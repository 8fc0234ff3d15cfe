"""Columnar snapshots: periodic checkpoints as column slices.

A snapshot file is a sequence of CRC-framed JSON documents (the same
``magic | length | crc32 | payload`` framing and JSON codec as the WAL,
different magic; frames from the older stdlib-``json`` writer still
load):

1. a manifest — format version, database name, the WAL LSN the snapshot
   covers, the structural counter, and per-table metadata (schema doc,
   data version, index epoch, secondary-index column tuples,
   row count, chunk count);
2. one frame per :data:`CHUNK_ROWS` rows of each table, in
   table-manifest order, holding each column's slice of those rows — so
   writing a snapshot is a per-column list slice of
   :meth:`Table.column_snapshot`, and loading one seeds that column cache;
3. a terminator frame recording the expected chunk total.

Snapshots are written to a temp file, fsynced, then renamed into place —
a crash mid-write leaves the previous snapshot untouched.  *Any* invalid
frame on read (bad magic, short file, CRC mismatch, missing terminator,
wrong chunk count) raises
:class:`~repro.errors.SnapshotCorruptionError`; the engine falls back to
the previous retained snapshot, never to a partially-applied load.

What is deliberately NOT persisted:

* index hash buckets — ``hash()`` is process-seeded for strings, so
  buckets are meaningless across processes; only the indexed column
  tuples are stored and the buckets rebuild on load;
* the column cache — version-keyed, it is re-seeded from the loaded
  columns.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from datetime import date
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReproError, SnapshotCorruptionError
from repro.relational.database import Database
from repro.relational.schema import schema_from_doc, schema_to_doc
from repro.relational.types import DataType
from repro.storage.wal import _dumps, _fsync_directory
from repro.storage.wal import _loads as _wal_loads

SNAP_MAGIC = b"RS"
HEADER_LEN = 10
FORMAT_VERSION = 1

#: Rows per chunk frame.  Part of the file layout only: a loader accepts
#: chunks of any length, but writers keep this so files stay
#: byte-identical across versions.
CHUNK_ROWS = 1024

#: Snapshot files are named ``snapshot-<lsn padded to 12>.snap`` so a
#: lexical sort of the directory is also an LSN sort.
SNAPSHOT_SUFFIX = ".snap"


def snapshot_name(lsn: int) -> str:
    return f"snapshot-{lsn:012d}{SNAPSHOT_SUFFIX}"


_SNAPSHOT_NAME = re.compile(r"snapshot-(\d{12,})\.snap")

#: What decoding a well-framed but malformed document can raise.
MALFORMED = (
    LookupError,
    TypeError,
    ValueError,
    AttributeError,
    ArithmeticError,
    ReproError,
)


def snapshot_lsn(path: Path) -> int:
    """The LSN encoded in a snapshot filename."""
    return int(path.stem.split("-", 1)[1])


def list_snapshots(directory: Path) -> list[Path]:
    """Snapshot files in ``directory``, oldest first (other names ignored)."""
    paths = directory.glob(f"snapshot-*{SNAPSHOT_SUFFIX}")
    return sorted(
        (p for p in paths if _SNAPSHOT_NAME.fullmatch(p.name)), key=snapshot_lsn
    )


# -- encoding -------------------------------------------------------------------


def _decode_column(values: list[object], dtype: DataType) -> list[object]:
    # DATE is the only dtype JSON cannot carry natively; everything else
    # round-trips exactly (ints, floats, bools, text, NULL as null).
    if dtype is DataType.DATE:
        return [None if v is None else date.fromisoformat(v) for v in values]  # type: ignore[arg-type]
    return values


def _frame(payload_doc: dict[str, Any]) -> bytes:
    # The WAL's codec: dates go out as ISO strings.
    payload = _dumps(payload_doc)
    return (
        SNAP_MAGIC
        + len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def _read_frames(path: Path) -> Iterator[dict[str, Any]]:
    """Every frame in the file; raises SnapshotCorruptionError on any damage."""
    data = path.read_bytes()
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < HEADER_LEN or data[offset : offset + 2] != SNAP_MAGIC:
            raise SnapshotCorruptionError(
                f"{path}: bad frame header at offset {offset}"
            )
        length = int.from_bytes(data[offset + 2 : offset + 6], "big")
        end = offset + HEADER_LEN + length
        if end > total:
            raise SnapshotCorruptionError(
                f"{path}: truncated frame at offset {offset}"
            )
        payload = data[offset + HEADER_LEN : end]
        if zlib.crc32(payload) != int.from_bytes(
            data[offset + 6 : offset + 10], "big"
        ):
            raise SnapshotCorruptionError(
                f"{path}: CRC mismatch in frame at offset {offset}"
            )
        try:
            yield _loads(payload)
        except ValueError as exc:
            raise SnapshotCorruptionError(
                f"{path}: undecodable frame at offset {offset}: {exc}"
            ) from exc
        offset = end


def _loads(payload: bytes) -> Any:
    try:
        return _wal_loads(payload)
    except ValueError:
        # A snapshot from the stdlib writer may hold NaN or Infinity, which
        # only the stdlib reader accepts.
        return json.loads(payload)


# -- writing --------------------------------------------------------------------


def write_snapshot(
    db: Database,
    directory: str | Path,
    lsn: int,
    state: dict[str, Any] | None = None,
) -> Path:
    """Checkpoint ``db`` (covering WAL records up to ``lsn``) atomically.

    ``state`` is an opaque JSON-able document the engine attaches (its
    meta map — warehouse lineage — and GUAVA change-feed states) so
    everything the WAL would have replayed up to ``lsn`` is also in the
    checkpoint and the WAL prefix can be pruned.

    Returns the final snapshot path.  Each chunk is a slice of each
    column of the table's shared column snapshot, so the write cost is
    dominated by C-level list slicing plus JSON serialization.
    """
    directory = Path(directory)
    final = directory / snapshot_name(lsn)
    temp = directory / (snapshot_name(lsn) + ".tmp")
    chunks = 0
    with open(temp, "wb") as handle:
        tables_meta = []
        table_chunks: list[tuple[str, Any, Any]] = []
        for name in db.table_names():
            table = db.table(name)
            schema = table.schema
            columns = table.column_snapshot()
            row_count = len(table)
            chunk_count = (row_count + CHUNK_ROWS - 1) // CHUNK_ROWS
            meta = schema_to_doc(schema)
            meta["version"] = table.version
            meta["index_epoch"] = table.index_epoch
            meta["indexes"] = [list(key) for key in table.secondary_index_columns()]
            meta["rows"] = row_count
            meta["chunks"] = chunk_count
            tables_meta.append(meta)
            table_chunks.append((name, schema, columns))
        handle.write(
            _frame(
                {
                    "format": FORMAT_VERSION,
                    "database": db.name,
                    "lsn": lsn,
                    "structure_version": db.structure_version,
                    "state": state or {},
                    "tables": tables_meta,
                }
            )
        )
        for name, schema, columns in table_chunks:
            names = schema.column_names
            row_count = len(columns[names[0]]) if names else 0
            for start in range(0, row_count, CHUNK_ROWS):
                stop = start + CHUNK_ROWS
                handle.write(
                    _frame(
                        {
                            "table": name,
                            "chunk": chunks,
                            "columns": {col: columns[col][start:stop] for col in names},
                        }
                    )
                )
                chunks += 1
        handle.write(_frame({"end": True, "chunks": chunks}))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, final)
    _fsync_directory(directory)
    return final


# -- loading --------------------------------------------------------------------


def load_snapshot(path: str | Path) -> tuple[Database, int, dict[str, Any]]:
    """Rebuild a Database from a snapshot: ``(db, covered_lsn, state)``.

    Restores, per table: the extent (adopted column-major *and* row-major,
    pre-seeding the column cache), secondary indexes (rebuilt
    from metadata), and the exact version and index-epoch counters.  The
    partition-epoch key that older snapshots carry is ignored: their
    partitions were views over the same rows.
    The database's structural counter is restored last so the recovered
    :attr:`Database.epoch` is bit-identical to the checkpointed one.
    """
    path = Path(path)
    try:
        return _load_snapshot(path)
    except SnapshotCorruptionError:
        raise
    except MALFORMED as exc:
        raise SnapshotCorruptionError(
            f"{path}: malformed snapshot document: {type(exc).__name__}: {exc}"
        ) from exc


def _load_snapshot(path: Path) -> tuple[Database, int, dict[str, Any]]:
    frames = _read_frames(path)
    try:
        manifest = next(frames)
    except StopIteration:
        raise SnapshotCorruptionError(f"{path}: empty snapshot file") from None
    if manifest.get("format") != FORMAT_VERSION:
        raise SnapshotCorruptionError(
            f"{path}: unsupported snapshot format {manifest.get('format')!r}"
        )
    db = Database(manifest.get("database", "recovered"))
    tables_meta = manifest.get("tables", [])
    columns_by_table: dict[str, dict[str, list[object]]] = {}
    schemas = {}
    for meta in tables_meta:
        schema = schema_from_doc(meta)
        schemas[schema.name] = meta
        db.create_table(schema)
        columns_by_table[schema.name] = {
            name: [] for name in schema.column_names
        }
    seen_chunks = 0
    terminated = False
    for frame in frames:
        if frame.get("end"):
            if frame.get("chunks") != seen_chunks:
                raise SnapshotCorruptionError(
                    f"{path}: terminator expects {frame.get('chunks')} chunks, "
                    f"found {seen_chunks}"
                )
            terminated = True
            break
        name = frame.get("table")
        if name not in columns_by_table:
            raise SnapshotCorruptionError(
                f"{path}: chunk for unknown table {name!r}"
            )
        schema = db.table(name).schema
        accumulated = columns_by_table[name]
        for col, values in frame["columns"].items():
            accumulated[col].extend(
                _decode_column(values, schema.column(col).dtype)
            )
        seen_chunks += 1
    if not terminated:
        raise SnapshotCorruptionError(f"{path}: missing terminator frame")
    for meta in tables_meta:
        name = meta["name"]
        table = db.table(name)
        columns = columns_by_table[name]
        names = table.schema.column_names
        # strict: every column must hold the same number of values (a
        # ValueError here is reported as a corrupt snapshot).
        rows = [
            dict(zip(names, values))
            for values in zip(*(columns[col] for col in names), strict=True)
        ]
        if len(rows) != meta.get("rows"):
            raise SnapshotCorruptionError(
                f"{path}: table {name!r} carries {len(rows)} rows, "
                f"manifest says {meta.get('rows')}"
            )
        for key in meta.get("indexes", []):
            table.create_index(tuple(key))
        # Counters first: restore_extent seeds the column cache keyed on the
        # *current* version, so the exact recovered version must already be
        # in place (and restore_counters drops every version-keyed cache,
        # which would evict a seed made beforehand).
        table.restore_counters(
            int(meta["version"]), index_epoch=int(meta.get("index_epoch", 0))
        )
        table.restore_extent(rows, columns=columns)
    db.restore_structure_version(int(manifest.get("structure_version", 0)))
    return db, int(manifest.get("lsn", 0)), manifest.get("state", {})


def prune_snapshots(directory: Path, keep: int = 2) -> list[Path]:
    """Delete all but the newest ``keep`` snapshots; returns what was removed.

    Two are kept so recovery can fall back to the previous checkpoint if
    the latest file is damaged at rest.
    """
    snapshots = list_snapshots(directory)
    removed = snapshots[:-keep] if keep else snapshots
    for path in removed:
        path.unlink()
    return removed
