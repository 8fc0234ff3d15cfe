"""Checkpoints copy the chunk frames of tables that only grew.

``write_snapshot`` with a :class:`SnapshotLayout` copies each full chunk
frame of a table that has only grown since the snapshot the layout
describes, and encodes the rest.  The file must be the same bytes a
write with nothing copied gives, under either WAL encoder, whatever mix
of inserts, updates, deletes, index changes and table drops came between
two checkpoints, and whatever happened to the previous file.
"""

from __future__ import annotations

import json
import random
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.obs.trace import tracing
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage import snapshots, wal
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.snapshots import (
    CHUNK_ROWS,
    SnapshotLayout,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    write_snapshot,
)

ENCODERS = ["stdlib", "orjson"]

TABLES = ("alpha", "beta", "gamma")


def _use(patch: pytest.MonkeyPatch, encoder: str) -> None:
    if encoder == "orjson":
        if wal.orjson is None:
            pytest.skip("orjson is not installed")
        return  # the modules' own encoder
    patch.setattr(snapshots, "_dumps", wal._dumps_stdlib)
    patch.setattr(snapshots, "_wal_loads", json.loads)


def _schema(name: str) -> TableSchema:
    return TableSchema(
        name,
        (
            Column("id", DataType.INTEGER, nullable=False),
            Column("name", DataType.TEXT),
            Column("score", DataType.FLOAT),
            Column("day", DataType.DATE),
            Column("ok", DataType.BOOLEAN),
        ),
        primary_key=("id",),
    )


class _World:
    """Tables fed with fresh ids and seeded values (NULLs and dates)."""

    def __init__(self, db: Database):
        self.db = db
        self.next_id = 0
        for name in TABLES:
            db.create_table(_schema(name))

    def rows(self, count: int, seed: int) -> list[dict[str, object]]:
        rng = random.Random(seed)
        rows = []
        for _ in range(count):
            rows.append(
                {
                    "id": self.next_id,
                    "name": rng.choice([None, "ada", "naïve", "b\"q"]),
                    "score": rng.choice([None, 0.5, -2.25, rng.random()]),
                    "day": rng.choice([None, date(2004 + rng.randrange(3), 5, 17)]),
                    "ok": rng.choice([None, True, False]),
                }
            )
            self.next_id += 1
        return rows

    def apply(self, op: tuple) -> None:
        kind, name = op[0], op[1]
        table = self.db.table(name)
        if kind == "insert":
            table.insert(self.rows(1, op[2])[0])
        elif kind == "insert_many":
            table.insert_many(self.rows(op[2], op[3]))
        elif kind == "update":
            mod = op[2]
            table.update(lambda row: row["id"] % mod == 0, {"name": None, "ok": True})
        elif kind == "delete":
            mod = op[2]
            table.delete(lambda row: row["id"] % mod == 1)
        elif kind == "create_index":
            table.create_index(op[2])
        elif kind == "drop_index":
            table.drop_index(op[2])
        elif kind == "recreate":
            self.db.drop_table(name)
            self.db.create_table(_schema(name))
        else:  # pragma: no cover - the strategy makes no other op
            raise AssertionError(kind)


_name = st.sampled_from(TABLES)
_seed = st.integers(0, 1 << 16)
_columns = st.sampled_from([("name",), ("day", "ok")])

OPS = st.one_of(
    st.tuples(st.just("insert"), _name, _seed),
    st.tuples(
        st.just("insert_many"),
        _name,
        st.sampled_from([0, 3, 200, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 1500]),
        _seed,
    ),
    st.tuples(st.just("update"), _name, st.integers(2, 40)),
    st.tuples(st.just("delete"), _name, st.integers(2, 40)),
    st.tuples(st.just("create_index"), _name, _columns),
    st.tuples(st.just("drop_index"), _name, _columns),
    st.tuples(st.just("recreate"), _name),
)


def _checkpoint(db, directory, reference, lsn, layout) -> Path:
    """A copying write and a write with nothing copied must be one file."""
    path = write_snapshot(db, directory, lsn, state={"lsn": lsn}, layout=layout)
    full = write_snapshot(db, reference, lsn, state={"lsn": lsn})
    assert path.read_bytes() == full.read_bytes()
    assert layout.copied + layout.encoded == sum(
        -(-len(db.table(name)) // CHUNK_ROWS) for name in db.table_names()
    )
    loaded, _, _ = load_snapshot(path)
    assert state_fingerprint(loaded) == state_fingerprint(db)
    # The tightest retention a store allows: only the newest file stays.
    prune_snapshots(directory, keep=1)
    full.unlink()
    return path


#: Starting sizes: most examples begin with full chunks to copy.
_SIZES = st.sampled_from([0, 5, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])


@pytest.mark.parametrize("encoder", ENCODERS)
@settings(max_examples=60, deadline=None)
@given(
    sizes=st.tuples(_SIZES, _SIZES, _SIZES),
    rounds=st.lists(st.lists(OPS, max_size=4), min_size=1, max_size=5),
)
def test_a_copying_checkpoint_writes_the_bytes_of_a_full_one(encoder, sizes, rounds):
    """Each round's ops are followed by a checkpoint."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        _use(patch, encoder)
        directory, reference = Path(tmp, "store"), Path(tmp, "reference")
        directory.mkdir()
        reference.mkdir()
        world = _World(Database("copy"))
        for name, size, seed in zip(TABLES, sizes, range(3)):
            world.apply(("insert_many", name, size, seed))
        layout = SnapshotLayout()
        _checkpoint(world.db, directory, reference, 1, layout)
        for lsn, ops in enumerate(rounds, start=2):
            for op in ops:
                world.apply(op)
            _checkpoint(world.db, directory, reference, lsn, layout)


def _grown() -> tuple[_World, SnapshotLayout]:
    world = _World(Database("copy"))
    world.db.table("alpha").insert_many(world.rows(3 * CHUNK_ROWS + 5, seed=1))
    world.db.table("beta").insert_many(world.rows(CHUNK_ROWS + 7, seed=2))
    return world, SnapshotLayout()


def _flip_a_chunk_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x20
    path.write_bytes(bytes(data))


def _truncate(path: Path) -> None:
    # Inside the manifest: every chunk frame is missing.
    path.write_bytes(path.read_bytes()[:100])


def _replace_with_another_snapshot(path: Path) -> None:
    other = Database("copy")
    other.create_table(_schema("alpha")).insert_many(
        [{"id": i, "name": "other"} for i in range(2 * CHUNK_ROWS)]
    )
    path.write_bytes(write_snapshot(other, path.parent / "other", 1).read_bytes())


DAMAGE = {
    "removed": Path.unlink,
    "flipped byte": _flip_a_chunk_byte,
    "truncated": _truncate,
    "replaced": _replace_with_another_snapshot,
}


@pytest.mark.parametrize("encoder", ENCODERS)
@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_previous_snapshot_is_encoded_again(
    tmp_path, monkeypatch, encoder, damage
):
    _use(monkeypatch, encoder)
    (tmp_path / "other").mkdir()
    reference = tmp_path / "reference"
    reference.mkdir()
    world, layout = _grown()
    first = _checkpoint(world.db, tmp_path, reference, 1, layout)
    world.db.table("alpha").insert_many(world.rows(10, seed=3))
    DAMAGE[damage](first)
    _checkpoint(world.db, tmp_path, reference, 2, layout)
    # Every frame the damage reached is encoded; a flipped byte spoils one.
    assert layout.copied == (3 + 1 - 1 if damage == "flipped byte" else 0)
    # ... and the next checkpoint copies from the file just written.
    world.db.table("beta").insert_many(world.rows(10, seed=4))
    _checkpoint(world.db, tmp_path, reference, 3, layout)
    assert layout.copied == 3 + 1


def test_copy_needs_the_same_table_the_same_numbering_and_only_growth(tmp_path):
    reference = tmp_path / "reference"
    reference.mkdir()
    world, layout = _grown()
    db = world.db
    _checkpoint(db, tmp_path, reference, 1, layout)
    assert (layout.copied, layout.encoded) == (0, 4 + 2)
    db.table("beta").insert_many(world.rows(5, seed=5))
    _checkpoint(db, tmp_path, reference, 2, layout)
    assert (layout.copied, layout.encoded) == (3 + 1, 1 + 1)
    # alpha grows by a chunk, so beta's chunks are numbered one later.
    db.table("alpha").insert_many(world.rows(CHUNK_ROWS, seed=6))
    _checkpoint(db, tmp_path, reference, 3, layout)
    assert (layout.copied, layout.encoded) == (3, 2 + 2)
    db.table("alpha").update(lambda row: row["id"] == 7, {"ok": False})
    _checkpoint(db, tmp_path, reference, 4, layout)
    assert (layout.copied, layout.encoded) == (1, 5 + 1)
    db.drop_table("beta")
    db.create_table(_schema("beta")).insert_many(world.rows(CHUNK_ROWS + 1, seed=7))
    _checkpoint(db, tmp_path, reference, 5, layout)
    assert (layout.copied, layout.encoded) == (4, 1 + 2)


def _chunks_of_checkpoint(store: DurableStore) -> tuple[int, int]:
    with tracing() as tracer:
        store.snapshot()
    (span,) = tracer.roots
    assert span.name == "storage.snapshot"
    return span.attrs["chunks_copied"], span.attrs["chunks_encoded"]


def test_the_snapshot_span_counts_copied_and_encoded_chunks(tmp_path):
    store = DurableStore(tmp_path, fsync="never")
    world = _World(store.db)
    alpha = store.db.table("alpha")
    alpha.insert_many(world.rows(3 * CHUNK_ROWS, seed=8))
    # The first checkpoint after an open has nothing to copy from.
    assert _chunks_of_checkpoint(store) == (0, 3)
    alpha.insert_many(world.rows(CHUNK_ROWS + 9, seed=9))
    assert _chunks_of_checkpoint(store) == (3, 2)
    alpha.update(lambda row: row["id"] % 5 == 0, {"ok": None})
    assert _chunks_of_checkpoint(store) == (0, 5)
    alpha.delete(lambda row: row["id"] == 3)
    assert _chunks_of_checkpoint(store) == (0, 5)
    alpha.insert(world.rows(1, seed=10)[0])
    assert _chunks_of_checkpoint(store) == (4, 1)
    expected = state_fingerprint(store.db)
    store.close()
    reopened = DurableStore(tmp_path, fsync="never")
    try:
        assert state_fingerprint(reopened.db) == expected
        assert reopened.report.replayed == 0
        assert _chunks_of_checkpoint(reopened) == (0, 5)
    finally:
        reopened.close()


@pytest.mark.parametrize("kept", [0, -1])
def test_a_store_must_keep_a_snapshot(tmp_path, kept):
    directory = tmp_path / "store"
    with pytest.raises(StorageError, match="snapshots_kept"):
        DurableStore(directory, snapshots_kept=kept)
    assert not directory.exists()


def test_a_store_keeping_one_snapshot_copies_from_it(tmp_path):
    store = DurableStore(tmp_path, fsync="never", snapshots_kept=1)
    world = _World(store.db)
    store.db.table("gamma").insert_many(world.rows(2 * CHUNK_ROWS + 1, seed=11))
    store.snapshot()
    store.db.table("gamma").insert_many(world.rows(3, seed=12))
    assert _chunks_of_checkpoint(store) == (2, 1)
    assert len(list_snapshots(tmp_path)) == 1
    store.close()
