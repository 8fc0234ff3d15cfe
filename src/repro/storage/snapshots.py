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
   table-manifest order, holding each column's values for those rows;
3. a terminator frame recording the expected chunk total.

A writer given a :class:`SnapshotLayout` copies, byte for byte, each full
chunk frame of a table that has only grown since the snapshot that layout
describes, and encodes the rest; the file is the same bytes either way.

Snapshots are written to a temp file, fsynced, then renamed into place —
a crash mid-write leaves the previous snapshot untouched.  *Any* invalid
frame on read (bad magic, short file, CRC mismatch, missing terminator,
wrong chunk count) raises
:class:`~repro.errors.SnapshotCorruptionError`; the engine falls back to
the previous retained snapshot, never to a partially-applied load.

What is deliberately NOT persisted:

* index hash buckets — ``hash()`` is process-seeded for strings, so
  buckets are meaningless across processes; only the indexed column
  tuples are stored and the buckets rebuild on load.
"""

from __future__ import annotations

import json
import os
import re
import weakref
import zlib
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from repro.errors import ReproError, SnapshotCorruptionError
from repro.relational.database import Database
from repro.relational.schema import schema_from_doc, schema_to_doc
from repro.relational.table import Table
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


@dataclass
class _TableFrames:
    """One table's full chunk frames in a written snapshot."""

    table: weakref.ref[Table]
    #: Global number of the table's first chunk.
    first_chunk: int
    version: int
    rows: int
    #: (offset, length, crc) per full chunk frame, in chunk order.
    frames: list[tuple[int, int, int]]


@dataclass
class SnapshotLayout:
    """Where the snapshot a store wrote last put each table's full chunks.

    A store hands the same layout to every :func:`write_snapshot`, which
    copies from the file it describes and then describes the new file.
    ``copied``/``encoded`` count the chunk frames of the last write.
    """

    path: Path | None = None
    tables: dict[str, _TableFrames] = field(default_factory=dict)
    copied: int = 0
    encoded: int = 0

    def reusable(self, table: Table, first_chunk: int) -> list[tuple[int, int, int]]:
        """The frames of ``table`` that can be copied: none unless it is the
        same object, numbered from the same chunk, and has only grown.

        Every update or delete bumps the version without adding a row, and
        nothing lowers ``version - rows``, so equal growth of both means
        the rows of the old full chunks are untouched.
        """
        then = self.tables.get(table.name)
        if (
            then is None
            or then.table() is not table
            or then.first_chunk != first_chunk
            or table.version - then.version != len(table) - then.rows
        ):
            return []
        return then.frames


def _copied_frame(source: BinaryIO, offset: int, length: int, crc: int) -> bytes | None:
    """The frame at ``offset`` if it is still the one written there."""
    source.seek(offset)
    frame = source.read(length)
    if (
        len(frame) != length
        or frame[:2] != SNAP_MAGIC
        or int.from_bytes(frame[2:6], "big") != length - HEADER_LEN
        or int.from_bytes(frame[6:10], "big") != crc
        or zlib.crc32(frame[HEADER_LEN:]) != crc
    ):
        return None
    return frame


def write_snapshot(
    db: Database,
    directory: str | Path,
    lsn: int,
    state: dict[str, Any] | None = None,
    layout: SnapshotLayout | None = None,
) -> Path:
    """Checkpoint ``db`` (covering WAL records up to ``lsn``) atomically.

    ``state`` is an opaque JSON-able document the engine attaches (its
    meta map — warehouse lineage — and GUAVA change-feed states) so
    everything the WAL would have replayed up to ``lsn`` is also in the
    checkpoint and the WAL prefix can be pruned.

    Returns the final snapshot path.  Each chunk frame holds, per
    column, the values of the next :data:`CHUNK_ROWS` rows of the extent.
    With a ``layout``, the full chunk frames :meth:`SnapshotLayout.reusable`
    allows are read back one at a time from the file it describes and
    copied if their CRC still checks (any other chunk is encoded), and on
    success the layout describes the new file.
    """
    directory = Path(directory)
    final = directory / snapshot_name(lsn)
    temp = directory / (snapshot_name(lsn) + ".tmp")
    chunks = copied = 0
    written: dict[str, _TableFrames] = {}
    source: BinaryIO | None = None
    if layout is not None and layout.path is not None:
        try:
            source = open(layout.path, "rb")
        except OSError:
            pass  # the previous snapshot is gone: encode every chunk
    try:
        with open(temp, "wb") as handle:
            tables_meta = []
            tables = []
            for name in db.table_names():
                table = db.table(name)
                row_count = len(table)
                chunk_count = (row_count + CHUNK_ROWS - 1) // CHUNK_ROWS
                meta = schema_to_doc(table.schema)
                meta["version"] = table.version
                meta["index_epoch"] = table.index_epoch
                meta["indexes"] = [
                    list(key) for key in table.secondary_index_columns()
                ]
                meta["rows"] = row_count
                meta["chunks"] = chunk_count
                tables_meta.append(meta)
                tables.append((table, row_count, chunk_count))
            offset = handle.write(
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
            for table, row_count, chunk_count in tables:
                names = table.schema.column_names
                columns = table.stored_columns()
                reusable = (
                    layout.reusable(table, chunks)
                    if layout is not None and source is not None
                    else []
                )
                full = row_count // CHUNK_ROWS
                frames = []
                for number in range(chunk_count):
                    frame = None
                    if number < len(reusable) and source is not None:
                        frame = _copied_frame(source, *reusable[number])
                    if frame is None:
                        start = number * CHUNK_ROWS
                        frame = _frame(
                            {
                                "table": table.name,
                                "chunk": chunks + number,
                                "columns": {
                                    name: column[start : start + CHUNK_ROWS]
                                    for name, column in zip(names, columns)
                                },
                            }
                        )
                    else:
                        copied += 1
                    if number < full:
                        frames.append(
                            (offset, len(frame), int.from_bytes(frame[6:10], "big"))
                        )
                    offset += handle.write(frame)
                written[table.name] = _TableFrames(
                    weakref.ref(table), chunks, table.version, row_count, frames
                )
                chunks += chunk_count
            handle.write(_frame({"end": True, "chunks": chunks}))
            handle.flush()
            os.fsync(handle.fileno())
    finally:
        if source is not None:
            source.close()
    os.replace(temp, final)
    _fsync_directory(directory)
    if layout is not None:
        layout.path = final
        layout.tables = written
        layout.copied = copied
        layout.encoded = chunks - copied
    return final


# -- loading --------------------------------------------------------------------


def load_snapshot(path: str | Path) -> tuple[Database, int, dict[str, Any]]:
    """Rebuild a Database from a snapshot: ``(db, covered_lsn, state)``.

    Restores, per table: the extent (its rows built from the chunks'
    columns), secondary indexes (rebuilt from metadata), and the exact
    version and index-epoch counters.  The partition-epoch key that older
    snapshots carry is ignored: their partitions were views over the same
    rows.
    The database's structural counter is restored last so the recovered
    :attr:`Database.plan_epoch` is bit-identical to the checkpointed one.
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
        columns = [columns_by_table[name][col] for col in table.schema.column_names]
        # The decoded lists are the table's columns; each must hold the
        # manifest's row count.
        for column in columns:
            if len(column) != meta.get("rows"):
                raise SnapshotCorruptionError(
                    f"{path}: table {name!r} carries {len(column)} rows, "
                    f"manifest says {meta.get('rows')}"
                )
        for key in meta.get("indexes", []):
            table.create_index(tuple(key))
        table.restore_counters(
            int(meta["version"]), index_epoch=int(meta.get("index_epoch", 0))
        )
        table.restore_extent(columns, int(meta.get("rows", 0)))
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
