"""Durable storage: write-ahead log, columnar snapshots, crash recovery.

The engine in :mod:`repro.relational` is purely in-memory; this package
makes a database survive process death.  Three pieces:

* :mod:`repro.storage.wal` — an append-only, CRC-framed redo log in
  numbered segment files, fed by the relational layer's
  mutation/structure listeners, with explicit commit records and
  torn-tail-tolerant replay.
* :mod:`repro.storage.snapshots` — periodic columnar checkpoints that
  serialize each table as chunks of :data:`~repro.storage.snapshots.CHUNK_ROWS`
  rows, one list per column, so a cold start rehydrates straight into
  the table's column cache.
* :mod:`repro.storage.engine` — :class:`DurableStore`, which wires the
  two together: recovery loads the latest valid snapshot and replays the
  WAL segments after it up to the last commit, restoring table versions,
  index epochs, the structural counter, GUAVA change feeds, and
  warehouse lineage exactly — both executors produce bit-identical
  results on a recovered database.
"""

from repro.storage.engine import DurableStore, RecoveryReport
from repro.storage.snapshots import load_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog, read_wal

__all__ = [
    "DurableStore",
    "RecoveryReport",
    "WriteAheadLog",
    "read_wal",
    "load_snapshot",
    "write_snapshot",
]
