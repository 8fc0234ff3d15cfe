"""DurableStore: WAL + snapshots + recovery, wired into the engine.

One :class:`DurableStore` owns a directory::

    store/
      wal-<first lsn>.log        the redo log, one segment per checkpoint
                                 interval (12-digit LSNs; the newest is
                                 the active segment)
      snapshot-<lsn>.snap        columnar checkpoints (newest 2 kept)

Opening the store *is* recovery: load the newest valid snapshot (falling
back to the previous one if the newest is damaged at rest), replay the
WAL from the segment holding the record just past the snapshot, up to
the **last commit record** (a durable-but-uncommitted tail is discarded,
never silently — the recovery report counts it, and the file is cut back
to the last commit), then attach the relational layer's
mutation/structure listeners so every subsequent mutation is mirrored
into the log.  Because replay drives the same mutation methods the
original process used (``check_batch`` + ``append_checked``,
``insert``, ``apply_update_at``, ``delete_at``, ``create_index``,
``create_table`` …), every version counter, index
epoch, and the structural counter land bit-identical — the interpreted
reference and the streaming executor give byte-for-byte the same
answers on a recovered database, and the plan cache can never confuse
pre- and post-crash epochs.  Recovery also deletes ``*.tmp`` files a
crash left behind (a half-written snapshot), and refuses a directory
holding a single-file ``wal.log`` from the older store format with a
:class:`~repro.errors.RecoveryError`.

Beyond the relational state the store persists two engine-level maps:

* ``meta`` — small keyed documents; the warehouse adapter stores
  refresh lineage under ``lineage/<table>`` so incremental
  materialization keeps working across a reopen;
* ``feeds`` — GUAVA change-feed states (see
  :class:`~repro.guava.source.ChangeFeedState`), so "which records
  changed since version v" still answers after a restart instead of
  degrading every refresh to a full rebuild.

Checkpointing (:meth:`DurableStore.snapshot`) commits, writes the
snapshot atomically, keeps the newest two, then rotates the log to a
fresh segment starting just past the snapshot's LSN and deletes the
segments whose records all sit at or below the *oldest retained*
snapshot — so recovery always has a valid (snapshot, WAL-suffix) pair
even when the newest snapshot file is corrupt, and a checkpoint never
reads the log back.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import RecoveryError, SnapshotCorruptionError, StorageError
from repro.guava.source import ChangeFeedState
from repro.obs.trace import span as trace_span
from repro.relational.database import Database
from repro.relational.schema import schema_from_doc, schema_to_doc
from repro.relational.table import Table
from repro.storage.snapshots import (
    MALFORMED,
    SnapshotLayout,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_lsn,
    write_snapshot,
)
from repro.storage.wal import (
    AppendHook,
    WriteAheadLog,
    _fsync_directory,
    list_segments,
    prune_segments,
    read_segments,
    segment_first_lsn,
    segment_name,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.guava.source import GuavaSource
    from repro.warehouse.store import Warehouse

#: The single-file log of the older store format, refused on open.
LEGACY_WAL_NAME = "wal.log"


@dataclass
class RecoveryReport:
    """What recovery found and did; exposed as gauges on the recover span."""

    cold_start: bool = True
    snapshot: str | None = None
    snapshot_lsn: int = 0
    #: (path, error) per damaged snapshot skipped on the way to a valid one.
    snapshot_fallbacks: list[tuple[str, str]] = field(default_factory=list)
    #: WAL segment files decoded (those from the snapshot's on).
    segments_read: int = 0
    wal_records: int = 0
    replayed: int = 0
    #: Records at or below the snapshot LSN (already inside the snapshot).
    skipped: int = 0
    #: Durable records after the last commit, discarded (never committed).
    discarded_uncommitted: int = 0
    #: Crash-artifact bytes dropped from the physical WAL tail.
    torn_bytes: int = 0
    #: Leftover ``*.tmp`` files (half-written snapshots) deleted.
    temp_files_removed: int = 0
    tables: int = 0
    rows: int = 0
    duration_s: float = 0.0

    def to_doc(self) -> dict[str, Any]:
        return {
            "cold_start": self.cold_start,
            "snapshot": self.snapshot,
            "snapshot_lsn": self.snapshot_lsn,
            "snapshot_fallbacks": [list(f) for f in self.snapshot_fallbacks],
            "segments_read": self.segments_read,
            "wal_records": self.wal_records,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "discarded_uncommitted": self.discarded_uncommitted,
            "torn_bytes": self.torn_bytes,
            "temp_files_removed": self.temp_files_removed,
            "tables": self.tables,
            "rows": self.rows,
            "duration_ms": round(self.duration_s * 1000, 3),
        }


def state_fingerprint(db: Database) -> str:
    """Deterministic digest of everything recovery promises to restore.

    Covers table schemas, extents **in storage order**, data versions,
    index epochs, secondary-index metadata, and the structural counter.
    Deliberately excludes anything process-seeded (index hash buckets),
    so the digest is comparable
    across processes — the crash harness compares a child's pre-kill
    fingerprint against the parent's post-recovery one.
    """
    doc: dict[str, Any] = {
        "database": db.name,
        "structure_version": db.structure_version,
        "tables": [],
    }
    for name in db.table_names():
        table = db.table(name)
        schema = table.schema
        doc["tables"].append(
            {
                "schema": schema_to_doc(schema),
                "version": table.version,
                "index_epoch": table.index_epoch,
                "indexes": [list(k) for k in table.secondary_index_columns()],
                "rows": _stored_rows(table),
            }
        )
    payload = json.dumps(doc, separators=(",", ":"), default=str, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stored_rows(table: Table) -> list[tuple[object, ...]]:
    """The table's rows as tuples of values in schema order, in storage
    order: the form the fingerprint has always digested."""
    columns = table.stored_columns()
    return list(zip(*columns)) if columns else [()] * len(table)


def _logged_row(
    table: Table, row: object, record: dict[str, Any]
) -> Mapping[str, object]:
    """A logged row as :meth:`Table.insert` takes it.

    The log holds each row as an array in schema column order; logs written
    before rows were stored as tuples hold objects keyed by column name,
    which are taken as they are.  Anything else is a :class:`RecoveryError`
    naming the record's LSN.
    """
    if isinstance(row, list):
        names = table.schema.column_names
        if len(row) == len(names):
            return dict(zip(names, row))
        raise RecoveryError(
            f"WAL record lsn {record.get('lsn')}: a row of {len(row)} values "
            f"for the {len(names)} columns of {table.name!r}"
        )
    if isinstance(row, dict):
        return row
    raise RecoveryError(
        f"WAL record lsn {record.get('lsn')}: a row of type "
        f"{type(row).__name__} for {table.name!r}"
    )


class DurableStore:
    """A Database whose state survives process death.

    >>> store = DurableStore(directory)     # open == recover
    >>> db = store.db
    >>> db.create_table(schema); db.table("t").insert({...})
    >>> store.commit()                      # durability point
    >>> store.snapshot()                    # checkpoint + WAL prune
    """

    def __init__(
        self,
        directory: str | Path,
        name: str = "durable",
        fsync: str = "commit",
        snapshots_kept: int = 2,
        append_hook: AppendHook | None = None,
    ):
        if snapshots_kept < 1:
            raise StorageError(
                f"snapshots_kept must be at least 1, got {snapshots_kept}: "
                "a checkpoint keeps the snapshot it just wrote"
            )
        self.directory = Path(directory)
        if not self.directory.is_dir():
            self.directory.mkdir(parents=True, exist_ok=True)
            _fsync_directory(self.directory.parent)
        self.name = name
        self.snapshots_kept = snapshots_kept
        self._meta: dict[str, dict] = {}
        self._feeds: dict[str, ChangeFeedState] = {}
        self._committed_lsn = 0
        # The snapshot this store wrote last, so the next checkpoint can
        # copy its unchanged chunk frames; empty until the first one.
        self._layout = SnapshotLayout()
        with trace_span("storage.recover", directory=str(self.directory)) as span:
            started = perf_counter()
            self.report = self._recover()
            self.report.duration_s = perf_counter() - started
            for key, value in self.report.to_doc().items():
                span.set(key, value)
        self._wal = WriteAheadLog(
            self._active_segment, fsync=fsync, append_hook=append_hook
        )
        self._wal.next_lsn = self._next_lsn
        self._wire()

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> RecoveryReport:
        legacy = self.directory / LEGACY_WAL_NAME
        if legacy.exists():
            raise RecoveryError(
                f"{legacy}: a single-file WAL from an older store format; "
                "this version reads only segmented logs (wal-<lsn>.log)"
            )
        report = RecoveryReport()
        for temp in self.directory.glob("*.tmp"):
            temp.unlink()
            report.temp_files_removed += 1
        db: Database | None = None
        snap_lsn = 0
        state: dict[str, Any] = {}
        for path in reversed(list_snapshots(self.directory)):
            try:
                db, snap_lsn, state = load_snapshot(path)
            except SnapshotCorruptionError as exc:
                report.snapshot_fallbacks.append((str(path), str(exc)))
                continue
            report.snapshot = str(path)
            report.snapshot_lsn = snap_lsn
            report.cold_start = False
            break
        if db is None:
            # Either a true cold start, or every snapshot was corrupt — in
            # the latter case full WAL replay can still recover, but only
            # if the log reaches back to lsn 1 (checked below); an empty or
            # pruned log must fail loudly rather than come up empty.
            db = Database(self.name)
        segments = list_segments(self.directory)
        # Replay starts in the last segment whose first LSN is at most one
        # past the snapshot; the segments before it hold nothing to redo.
        firsts = [segment_first_lsn(path) for path in segments]
        start = max(bisect_right(firsts, snap_lsn + 1) - 1, 0)
        # A WalCorruptionError or RecoveryError from read_segments
        # propagates: damage strictly before the last durable commit must
        # fail loudly, never lose data.
        records, read = read_segments(segments[start:])
        report.segments_read = len(read)
        report.wal_records = len(records)
        report.torn_bytes = read[-1]["torn_bytes"] if read else 0
        last_commit = -1
        for index, record in enumerate(records):
            if record.get("op") == "commit":
                last_commit = index
        committed = records[: last_commit + 1]
        report.discarded_uncommitted = len(records) - len(committed)
        if report.snapshot is None and report.snapshot_fallbacks:
            details = "; ".join(err for _, err in report.snapshot_fallbacks)
            if not committed or committed[0]["lsn"] != 1:
                raise RecoveryError(
                    f"{self.directory}: every snapshot is corrupt ({details}) "
                    "and the WAL does not reach back to lsn 1"
                )
        if read and read[0]["first_lsn"] > snap_lsn + 1:
            raise RecoveryError(
                f"{self.directory}: WAL begins at lsn {read[0]['first_lsn']} "
                f"but the recovered snapshot covers only lsn {snap_lsn}"
            )
        if committed:
            report.cold_start = False
        try:
            self._meta = dict(state.get("meta", {}))
            self._feeds = {
                name: ChangeFeedState.from_doc(doc)
                for name, doc in state.get("feeds", {}).items()
            }
        except MALFORMED as exc:
            raise RecoveryError(
                f"{report.snapshot}: malformed store state: {exc!r}"
            ) from exc
        for record in committed:
            if record["lsn"] <= snap_lsn:
                report.skipped += 1
                continue
            # A committed record that cannot be redone is corruption too.
            try:
                self._apply(db, record)
            except MALFORMED as exc:
                raise RecoveryError(
                    f"{self.directory}: WAL record lsn {record['lsn']} "
                    f"({record.get('op')!r}) cannot be replayed: {exc!r}"
                ) from exc
            report.replayed += 1
        self._db = db
        last_lsn = committed[-1]["lsn"] if committed else 0
        self._next_lsn = max(snap_lsn, last_lsn) + 1
        self._committed_lsn = max(snap_lsn, last_lsn)
        self._active_segment = self.directory / segment_name(self._next_lsn)
        if read:
            tail = read[-1]
            if os.path.getsize(tail["path"]) > tail["commit_end"]:
                # Rotation follows a commit, so a torn or uncommitted tail
                # and an unused reserve lie in the last segment: cut them
                # off in place, so the LSNs handed out next don't collide
                # with dead frames and appends resume at the last commit.
                with open(tail["path"], "r+b") as handle:
                    handle.truncate(tail["commit_end"])
                    os.fsync(handle.fileno())
            if tail["last_lsn"] - report.discarded_uncommitted == self._committed_lsn:
                # Appends continue the last segment unless the snapshot
                # runs past the log's end (its writes never reached disk).
                self._active_segment = Path(tail["path"])
        report.tables = len(db.table_names())
        report.rows = db.total_rows()
        return report

    def _apply(self, db: Database, record: dict[str, Any]) -> None:
        """Redo one WAL record against the recovering database."""
        op = record.get("op")
        if op == "commit":
            return
        if op == "create_table":
            db.create_table(schema_from_doc(record["schema"]))
        elif op == "drop_table":
            db.drop_table(record["name"])
        elif op == "insert_many":
            table = db.table(record["table"])
            rows = [_logged_row(table, row, record) for row in record["rows"]]
            table.append_checked(table.check_batch(rows))
        elif op == "insert":
            table = db.table(record["table"])
            table.insert(_logged_row(table, record["row"], record))
        elif op == "update":
            db.table(record["table"]).apply_update_at(
                record["positions"], record["changes"]
            )
        elif op == "delete":
            db.table(record["table"]).delete_at(record["positions"])
        elif op == "create_index":
            db.table(record["table"]).create_index(tuple(record["columns"]))
        elif op == "drop_index":
            db.table(record["table"]).drop_index(tuple(record["columns"]))
        elif op == "meta":
            if record.get("doc") is None:
                self._meta.pop(record["key"], None)
            else:
                self._meta[record["key"]] = record["doc"]
        elif op == "feed":
            self._feeds.setdefault(record["source"], ChangeFeedState()).note(
                record["version"], record.get("record"), record.get("form")
            )
        else:
            raise RecoveryError(f"unknown WAL operation {op!r}")

    # -- listener wiring -------------------------------------------------------

    def _wire(self) -> None:
        self._db.set_structure_listener(self._on_structure)
        for name in self._db.table_names():
            self._attach_table(self._db.table(name))

    def _attach_table(self, table: Table) -> None:
        append = self._wal.append
        name = table.name

        def mirror(op: str, payload: dict[str, object]) -> None:
            if op == "insert_many":
                # The hot path — saved screens and loads arrive as batches,
                # so it skips the generic dispatch: one dict, one append.
                append({"op": op, "table": name, "rows": payload["rows"]})
            else:
                self._on_mutation(name, op, payload)

        table.set_mutation_listener(mirror)

    def _on_mutation(self, name: str, op: str, payload: dict[str, Any]) -> None:
        # Rows (tuples of values, logged as arrays in schema order) and change
        # dicts are passed by reference and serialized synchronously inside
        # append() (dates via its JSON default hook), so the hot insert
        # path never copies the row.
        record: dict[str, Any] = {"op": op, "table": name}
        if op == "insert":
            record["row"] = payload["row"]
        elif op == "update":
            record["positions"] = payload["positions"]
            record["changes"] = payload["changes"]
        elif op == "delete":
            record["positions"] = payload["positions"]
        elif op in ("create_index", "drop_index"):
            record["columns"] = payload["columns"]
        else:  # pragma: no cover - future-proofing against new mutations
            raise RecoveryError(f"unloggable mutation {op!r} on table {name!r}")
        self._wal.append(record)

    def _on_structure(self, op: str, payload: dict[str, Any]) -> None:
        if op == "create_table":
            self._wal.append(
                {"op": "create_table", "schema": schema_to_doc(payload["schema"])}
            )
            self._attach_table(payload["table"])  # type: ignore[arg-type]
        elif op == "drop_table":
            payload["table"].set_mutation_listener(None)  # type: ignore[union-attr]
            self._wal.append({"op": "drop_table", "name": payload["name"]})

    # -- public surface --------------------------------------------------------

    @property
    def db(self) -> Database:
        return self._db

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record (0 = empty log)."""
        return self._wal.next_lsn - 1

    @property
    def committed_lsn(self) -> int:
        """The LSN of the last durable commit record."""
        return self._committed_lsn

    def commit(self) -> int:
        """Append a commit record and make everything before it durable."""
        lsn = self._wal.append({"op": "commit"})
        self._wal.commit_sync()
        self._committed_lsn = lsn
        return lsn

    def set_meta(self, key: str, doc: dict | None) -> None:
        """Durably set (or with ``None`` delete) a small keyed document."""
        if doc is None:
            self._meta.pop(key, None)
        else:
            self._meta[key] = dict(doc)
        self._wal.append({"op": "meta", "key": key, "doc": doc})

    def get_meta(self, key: str) -> dict | None:
        stored = self._meta.get(key)
        return dict(stored) if stored is not None else None

    def snapshot(self) -> Path:
        """Checkpoint: commit, write a columnar snapshot, prune old state.

        Committing first makes the checkpoint a committed point — a
        snapshot may never capture effects that could later be rolled back
        as uncommitted.  The full chunk frames of tables that only grew
        since this store's previous checkpoint are copied from that file
        rather than encoded again (see
        :class:`~repro.storage.snapshots.SnapshotLayout`).  The newest
        :attr:`snapshots_kept` snapshots stay.
        The log then rotates to a segment starting just past the snapshot,
        and the segments whose records all sit at or below the *oldest
        retained* snapshot's LSN are deleted, so a fallback to that older
        snapshot still finds every record it needs to replay.  No log
        record is read back.
        """
        with trace_span("storage.snapshot", directory=str(self.directory)) as span:
            started = perf_counter()
            lsn = self.commit()
            state = {
                "meta": self._meta,
                "feeds": {name: feed.to_doc() for name, feed in self._feeds.items()},
            }
            path = write_snapshot(
                self._db, self.directory, lsn, state=state, layout=self._layout
            )
            prune_snapshots(self.directory, keep=self.snapshots_kept)
            self._wal.rotate()
            oldest = snapshot_lsn(list_snapshots(self.directory)[0])
            pruned = prune_segments(self.directory, oldest)
            span.set("lsn", lsn)
            span.set("bytes", path.stat().st_size)
            span.set("chunks_copied", self._layout.copied)
            span.set("chunks_encoded", self._layout.encoded)
            span.set("wal_segments_pruned", len(pruned))
            span.set("duration_ms", round((perf_counter() - started) * 1000, 3))
        return path

    def close(self, commit: bool = True) -> None:
        """Detach listeners and close the log (committing by default)."""
        if commit and self.last_lsn > self._committed_lsn:
            self.commit()
        self._db.set_structure_listener(None)
        for name in self._db.table_names():
            self._db.table(name).set_mutation_listener(None)
        self._wal.close()

    # -- adapters --------------------------------------------------------------

    def attach_source(self, source: "GuavaSource") -> None:
        """Wire a GUAVA source's change feed into the store.

        If recovery restored a feed state for this source name, the source
        adopts it (the store and the source then share one object, so
        checkpoints always see the current feed); otherwise the source's
        own fresh state is registered.  Every subsequent feed note is
        mirrored into the WAL as a ``feed`` record.
        """
        if source.db is not self._db:
            raise RecoveryError(
                f"source {source.name!r} is not backed by this store's database"
            )
        recovered = self._feeds.get(source.name)
        if recovered is not None:
            source.adopt_feed(recovered)
        else:
            self._feeds[source.name] = source.feed

        def mirror(
            version: int,
            record_id: int | None,
            form: str | None,
            name: str = source.name,
        ) -> None:
            self._wal.append(
                {
                    "op": "feed",
                    "source": name,
                    "version": version,
                    "record": record_id,
                    "form": form,
                }
            )

        source.on_feed_change = mirror

    def attach_warehouse(self, warehouse: "Warehouse") -> None:
        """Wire a warehouse's refresh lineage into the store.

        Recovered ``lineage/<table>`` meta documents are reinstated first
        (so ``adopt_existing`` and incremental refresh work right after a
        reopen), then every lineage change is mirrored as a ``meta`` WAL
        record.
        """
        if warehouse.db is not self._db:
            raise RecoveryError(
                "warehouse is not backed by this store's database "
                "(construct it with Warehouse(db=store.db))"
            )
        prefix = "lineage/"
        for key, doc in self._meta.items():
            if key.startswith(prefix):
                warehouse.restore_lineage(key[len(prefix) :], doc)

        def mirror(table: str, doc: dict | None) -> None:
            self.set_meta(prefix + table, doc)

        warehouse.on_lineage = mirror

    # -- auditing --------------------------------------------------------------

    def verify(self) -> dict[str, Any]:
        """Read-only audit of every durable artifact plus the live state.

        Re-reads every WAL segment as one log (one entry per segment:
        path, first and last LSN, record count, torn bytes) and re-loads
        every snapshot file from disk (each reporting ok/error instead of
        raising), and fingerprints the live database — the document the
        CI recovery-trace artifact captures.
        """
        snapshots = []
        for path in list_snapshots(self.directory):
            entry: dict[str, Any] = {
                "path": str(path),
                "lsn": snapshot_lsn(path),
                "bytes": path.stat().st_size,
            }
            try:
                snap_db, _, _ = load_snapshot(path)
            except SnapshotCorruptionError as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            else:
                entry["ok"] = True
                entry["tables"] = len(snap_db.table_names())
                entry["rows"] = snap_db.total_rows()
            snapshots.append(entry)
        self._wal.flush()
        paths = list_segments(self.directory)
        wal_entry: dict[str, Any]
        try:
            records, segments = read_segments(paths)
        except Exception as exc:  # noqa: BLE001 - audit reports, never raises
            wal_entry = {
                "ok": False,
                "error": str(exc),
                "segments": [
                    {"path": str(p), "first_lsn": segment_first_lsn(p)} for p in paths
                ],
            }
        else:
            commits = [r["lsn"] for r in records if r.get("op") == "commit"]
            wal_entry = {
                "ok": True,
                "records": len(records),
                "last_commit_lsn": commits[-1] if commits else 0,
                "segments": segments,
            }
        return {
            "directory": str(self.directory),
            "recovery": self.report.to_doc(),
            "snapshots": snapshots,
            "wal": wal_entry,
            "live": {
                "database": self._db.name,
                "tables": {
                    name: {
                        "rows": len(self._db.table(name)),
                        "version": self._db.table(name).version,
                        "index_epoch": self._db.table(name).index_epoch,
                    }
                    for name in self._db.table_names()
                },
                "structure_version": self._db.structure_version,
                "last_lsn": self.last_lsn,
                "committed_lsn": self.committed_lsn,
                "fingerprint": state_fingerprint(self._db),
            },
        }
