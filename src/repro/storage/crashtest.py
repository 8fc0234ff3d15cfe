"""Kill-and-recover harness: SIGKILL a mutation workload, then audit.

The CI ``crash-recovery`` job (and ``tests/test_storage``'s subprocess
suite) runs this module as a child process::

    python -m repro.storage.crashtest --dir D --seed S --kill torn:40

The child executes a deterministic seeded workload against a
:class:`~repro.storage.DurableStore` and SIGKILLs *itself* at an
injected point — mid-WAL-append (a genuinely torn frame, half its bytes
durable), right after a commit's fsync, mid-snapshot-write (a partial
temp file on disk), mid-rotation (snapshot written, old segment sealed,
no new segment yet), right after rotation (new segment open, no old
segment deleted), or right after a completed checkpoint.  The parent
then recovers the directory and asserts the recovered state is
**bit-identical** to an oracle.

The oracle needs no IPC: the workload is a pure function of the seed
(:func:`build_ops`), and both the durable run and an in-memory oracle
run drive the *same* ``apply_op``.  A single-row ``ckpt`` table is
updated to ``k`` right before the ``k``-th commit, so the recovered
database itself declares which commit it recovered to; the parent
checks ``state_fingerprint(recovered) == oracle_fingerprints(seed)[k]``.
Fingerprints cover schemas, extents in storage order, and every counter
— and exclude process-seeded artifacts (index buckets), the only things
that legitimately differ across processes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
from datetime import date, timedelta
from pathlib import Path
from typing import Any

from repro.obs.trace import tracing
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.snapshots import snapshot_name, write_snapshot

Op = tuple[Any, ...]

KINDS = ("admit", "discharge", "transfer", "observe", "operate")


def _events_schema() -> TableSchema:
    return TableSchema(
        "events",
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("kind", DataType.TEXT),
            Column("severity", DataType.INTEGER),
            Column("score", DataType.FLOAT),
            Column("day", DataType.DATE),
            Column("flagged", DataType.BOOLEAN),
        ),
        primary_key=("id",),
    )


def _ckpt_schema() -> TableSchema:
    return TableSchema(
        "ckpt",
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("n", DataType.INTEGER, nullable=False),
        ),
        primary_key=("id",),
    )


def build_ops(seed: int, commits: int = 8, rows_per_commit: int = 50) -> list[Op]:
    """The deterministic workload: a flat op list, commits included.

    Mixes every logged mutation class — inserts (with NULLs and dates),
    predicate updates and deletes, index create/drop — so each kill point
    can land inside any record kind.
    """
    rng = random.Random(seed)
    ops: list[Op] = [
        ("create_table", "events"),
        ("create_table", "ckpt"),
        ("insert", "ckpt", {"id": 0, "n": 0}),
    ]
    next_id = 0
    base_day = date(2004, 1, 1)
    for commit_number in range(1, commits + 1):
        for _ in range(rows_per_commit):
            day = base_day + timedelta(days=rng.randrange(0, 400))
            flagged: bool | None = rng.random() < 0.5
            if rng.random() < 0.1:
                flagged = None
            ops.append(
                (
                    "insert",
                    "events",
                    {
                        "id": next_id,
                        "kind": rng.choice(KINDS),
                        "severity": rng.randrange(1, 6),
                        "score": round(rng.random() * 100, 4),
                        "day": day.isoformat(),
                        "flagged": flagged,
                    },
                )
            )
            next_id += 1
        roll = rng.random()
        if roll < 0.35:
            ops.append(
                (
                    "update_mod",
                    "events",
                    rng.randrange(3, 9),
                    rng.randrange(0, 3),
                    {"severity": rng.randrange(1, 6), "flagged": True},
                )
            )
        elif roll < 0.55:
            ops.append(("delete_mod", "events", rng.randrange(11, 23), 0))
        elif roll < 0.7:
            ops.append(("create_index", "events", ("kind",)))
        elif roll < 0.8:
            ops.append(("drop_index", "events", ("kind",)))
        ops.append(("set_ckpt", commit_number))
        ops.append(("commit",))
    return ops


def apply_op(db: Database, op: Op) -> None:
    """Apply one workload op (shared by the durable run and the oracle)."""
    kind = op[0]
    if kind == "create_table":
        db.create_table(_events_schema() if op[1] == "events" else _ckpt_schema())
    elif kind == "insert":
        db.table(op[1]).insert(op[2])
    elif kind == "update_mod":
        _, name, mod, rem, changes = op
        db.table(name).update(lambda row: row["id"] % mod == rem, changes)
    elif kind == "delete_mod":
        _, name, mod, rem = op
        db.table(name).delete(lambda row: row["id"] % mod == rem)
    elif kind == "create_index":
        db.table(op[1]).create_index(op[2])
    elif kind == "drop_index":
        db.table(op[1]).drop_index(op[2])
    elif kind == "set_ckpt":
        db.table("ckpt").update(lambda row: row["id"] == 0, {"n": op[1]})
    elif kind == "commit":
        pass  # durability is the runner's concern, not the oracle's
    else:
        raise ValueError(f"unknown workload op {kind!r}")


def oracle_fingerprints(
    seed: int, commits: int = 8, rows_per_commit: int = 50
) -> list[str]:
    """``result[k]`` = the expected fingerprint after ``k`` durable commits."""
    db = Database("durable")
    fingerprints = [state_fingerprint(db)]
    for op in build_ops(seed, commits, rows_per_commit):
        apply_op(db, op)
        if op[0] == "commit":
            fingerprints.append(state_fingerprint(db))
    return fingerprints


def recovered_commit(db: Database) -> int:
    """Which commit the recovered database declares it reached."""
    rows = db.table("ckpt").rows() if db.has_table("ckpt") else []
    return int(rows[0]["n"]) if rows else 0


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _then_die(step: Any) -> Any:
    """``step``, followed by SIGKILL."""

    def run(*args: Any) -> Any:
        step(*args)
        _die()

    return run


def run_workload(
    directory: str | Path,
    seed: int,
    kill: str = "none",
    commits: int = 8,
    rows_per_commit: int = 50,
    snapshot_every: int = 0,
) -> str:
    """Run the workload durably, honoring a kill spec; returns fingerprint.

    Kill specs (the process never returns from a triggered kill):

    * ``none`` — run to completion
    * ``torn:N`` — on the N-th WAL append, write half the frame, fsync
      the torn prefix, SIGKILL
    * ``post_commit:K`` — SIGKILL right after the K-th commit's fsync
    * ``mid_snapshot:K`` — after the K-th commit, leave a half-written
      snapshot temp file on disk (a crash mid-checkpoint), SIGKILL
    * ``mid_rotation:K`` — after the K-th commit, checkpoint and SIGKILL
      once the snapshot is written and the active segment sealed, before
      the next segment exists
    * ``post_rotation:K`` — after the K-th commit, checkpoint and SIGKILL
      once the next segment exists, before any obsolete segment is deleted
    * ``post_snapshot:K`` — after the K-th commit, complete a snapshot
      (including the segment prune), print its ``storage.snapshot`` span's
      ``chunks_copied``/``chunks_encoded`` as one JSON line, then SIGKILL

    ``snapshot_every`` > 0 checkpoints after every that-many commits —
    combined with a later kill it exercises snapshot + WAL-suffix
    recovery rather than pure replay.
    """
    spec, _, arg_text = kill.partition(":")
    arg = int(arg_text) if arg_text else 0
    appends = 0

    def torn_append(record: dict, frame: bytes, handle: Any) -> bool:
        nonlocal appends
        appends += 1
        if spec == "torn" and appends == arg:
            handle.write(frame[: max(1, len(frame) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            _die()
        return False

    store = DurableStore(directory, append_hook=torn_append)
    commit_count = recovered_commit(store.db)
    for op in build_ops(seed, commits, rows_per_commit):
        apply_op(store.db, op)
        if op[0] != "commit":
            continue
        store.commit()
        commit_count += 1
        if spec == "post_commit" and commit_count == arg:
            _die()
        if spec == "mid_snapshot" and commit_count == arg:
            # A checkpoint dies halfway through its temp file: fabricate
            # the torn artifact write_snapshot would have left behind.
            real = write_snapshot(store.db, store.directory, store.last_lsn)
            data = real.read_bytes()
            real.unlink()
            temp = store.directory / (snapshot_name(store.last_lsn) + ".tmp")
            temp.write_bytes(data[: len(data) // 2])
            _die()
        if spec in ("mid_rotation", "post_rotation") and commit_count == arg:
            # Die inside the real checkpoint: rotate() seals the active
            # segment with close() and then opens the next one.
            wal = store.wal
            step = "close" if spec == "mid_rotation" else "rotate"
            setattr(wal, step, _then_die(getattr(wal, step)))
            store.snapshot()
        if spec == "post_snapshot" and commit_count == arg:
            with tracing() as tracer:
                store.snapshot()
            attrs = tracer.roots[0].attrs
            counts = {key: attrs[key] for key in ("chunks_copied", "chunks_encoded")}
            print(json.dumps(counts), flush=True)
            _die()
        if snapshot_every and commit_count % snapshot_every == 0:
            store.snapshot()
    fingerprint = state_fingerprint(store.db)
    store.close()
    return fingerprint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="durable-storage crash harness")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kill", default="none")
    parser.add_argument("--commits", type=int, default=8)
    parser.add_argument("--rows-per-commit", type=int, default=50)
    parser.add_argument("--snapshot-every", type=int, default=0)
    args = parser.parse_args(argv)
    fingerprint = run_workload(
        args.dir,
        args.seed,
        kill=args.kill,
        commits=args.commits,
        rows_per_commit=args.rows_per_commit,
        snapshot_every=args.snapshot_every,
    )
    print(fingerprint)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
