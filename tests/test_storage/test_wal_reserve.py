"""The WAL reserve: zeros ahead of the write position, and how they read.

A durable sync zero-fills the active segment up to a chunk boundary, so
the commits after it overwrite zeros instead of growing the file.  The
contract under test:

* commits inside the reserve leave the file's size alone, and only a
  durable log takes one (``fsync="never"`` never does);
* closing or rotating cuts the reserve off, so closed logs and sealed
  segments end exactly at their last frame;
* zeros after the last frame are a clean end, a frame torn over them is
  a torn tail (recovery lands on the last commit and cuts the file back),
  and a complete frame with a damaged payload is still corruption.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalCorruptionError
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.wal import (
    HEADER_LEN,
    RESERVE_CHUNK,
    RESERVE_HEADROOM,
    WriteAheadLog,
    _all_zero,
    list_segments,
    read_segments,
    read_wal,
    segment_name,
)

SCHEMA = TableSchema(
    "notes",
    (
        Column("id", DataType.INTEGER, nullable=False),
        Column("text", DataType.TEXT),
    ),
    primary_key=("id",),
)


def _rows(start: int, count: int, width: int = 20) -> list[dict]:
    return [
        {"id": n, "text": f"note {n} " + "x" * width}
        for n in range(start, start + count)
    ]


def _store_with_commits(directory: Path, commits: int, **options) -> DurableStore:
    store = DurableStore(directory, **options)
    table = store.db.create_table(SCHEMA)
    for number in range(commits):
        table.insert_many(_rows(number * 10, 10))
        store.commit()
    return store


def _segment_size(store: DurableStore) -> int:
    return list_segments(store.directory)[-1].stat().st_size


class TestReserve:
    def test_commits_inside_the_reserve_keep_the_file_size(self, tmp_path):
        store = _store_with_commits(tmp_path, 1)
        size = _segment_size(store)
        assert size == RESERVE_CHUNK
        for number in range(1, 20):
            store.db.table("notes").insert_many(_rows(number * 10, 10))
            store.commit()
            assert _segment_size(store) == size
        assert store.wal.syncs == 20
        store.close()

    def test_opening_a_store_writes_nothing(self, tmp_path):
        fresh = DurableStore(tmp_path)
        assert _segment_size(fresh) == 0
        fresh.db.create_table(SCHEMA)
        fresh.close()
        closed = list_segments(tmp_path)[-1].read_bytes()
        reopened = DurableStore(tmp_path)
        assert list_segments(tmp_path)[-1].read_bytes() == closed
        reopened.close()

    def test_a_closed_log_ends_at_its_last_frame(self, tmp_path):
        store = _store_with_commits(tmp_path, 3)
        assert _segment_size(store) > store.wal.appended_bytes
        store.close()
        segment = list_segments(tmp_path)[-1]
        records, tail = read_wal(segment)
        assert segment.stat().st_size == tail["commit_end"] == store.wal.appended_bytes
        assert len(records) == store.committed_lsn and tail["torn_bytes"] == 0

    def test_sealed_segments_end_at_their_last_frame(self, tmp_path):
        store = _store_with_commits(tmp_path, 2)
        store.snapshot()
        store.db.table("notes").insert_many(_rows(100, 10))
        store.commit()
        store.snapshot()
        segments = list_segments(tmp_path)  # the first one was pruned
        assert len(segments) == 2
        for sealed in segments[:-1]:
            _, tail = read_wal(sealed)
            assert sealed.stat().st_size == tail["commit_end"] > 0
        # The new active segment takes its reserve at its first commit.
        assert segments[-1].stat().st_size == 0
        records, reports = read_segments(segments)
        assert [r["torn_bytes"] for r in reports] == [0, 0]
        assert records[-1]["lsn"] == store.committed_lsn
        store.close()

    def test_a_commit_larger_than_the_reserve(self, tmp_path):
        path = tmp_path / segment_name(1)
        wal = WriteAheadLog(path)
        wal.append({"op": "insert", "n": 1})
        wal.append({"op": "commit"})
        wal.commit_sync()
        assert path.stat().st_size == RESERVE_CHUNK
        wal.append({"op": "insert", "blob": "y" * (RESERVE_CHUNK + RESERVE_CHUNK // 2)})
        wal.append({"op": "commit"})
        wal.commit_sync()
        end = wal.appended_bytes
        size = path.stat().st_size
        assert size % RESERVE_CHUNK == 0 and size - end >= RESERVE_HEADROOM
        records, tail = read_wal(path)
        assert [r["lsn"] for r in records] == [1, 2, 3, 4]
        assert tail == {"frames": 4, "torn_bytes": 0, "commit_end": end}
        wal.close()
        assert path.stat().st_size == end

    def test_fsync_never_leaves_no_reserve(self, tmp_path):
        store = _store_with_commits(tmp_path, 5, fsync="never")
        store.wal.flush()
        assert _segment_size(store) == store.wal.appended_bytes
        assert store.wal.syncs == 0
        store.close()

    def test_a_live_store_verifies_with_no_torn_bytes(self, tmp_path):
        store = _store_with_commits(tmp_path, 3)
        assert _segment_size(store) == RESERVE_CHUNK
        report = store.verify()
        assert report["wal"]["ok"]
        assert [s["torn_bytes"] for s in report["wal"]["segments"]] == [0]
        assert report["wal"]["last_commit_lsn"] == store.committed_lsn
        store.close()

    def test_recovery_cuts_an_unused_reserve(self, tmp_path):
        store = _store_with_commits(tmp_path / "live", 2)
        committed = store.wal.appended_bytes
        fingerprint = state_fingerprint(store.db)
        # The files as a crash leaves them: the reserve is still there.
        crashed = shutil.copytree(store.directory, tmp_path / "crashed")
        store.close()
        assert list_segments(crashed)[-1].stat().st_size == RESERVE_CHUNK
        recovered = DurableStore(crashed)
        assert recovered.report.torn_bytes == 0
        assert recovered.report.discarded_uncommitted == 0
        assert state_fingerprint(recovered.db) == fingerprint
        assert _segment_size(recovered) == committed
        recovered.close()


@pytest.fixture(scope="module")
def torn_world(tmp_path_factory):
    """A log whose last commit is followed by one more batch and commit.

    ``data`` holds every frame; the final batch and commit frames, from
    ``base`` on, are the append a crash may tear.
    """
    directory = tmp_path_factory.mktemp("torn")
    store = _store_with_commits(directory, 3)
    base = store.wal.appended_bytes
    fingerprint = state_fingerprint(store.db)
    store.db.table("notes").insert_many(_rows(500, 10, width=200))
    store.commit()
    store.close()
    data = list_segments(directory)[-1].read_bytes()
    return {"data": data, "base": base, "fingerprint": fingerprint}


@settings(max_examples=60, deadline=None)
@given(raw=st.integers(min_value=0, max_value=2**31), zeros=st.integers(1, 4096))
def test_a_torn_append_over_the_reserve_recovers_the_last_commit(
    torn_world, raw, zeros
):
    data, base = torn_world["data"], torn_world["base"]
    cut = base + 1 + raw % (len(data) - base - 1)  # inside the last append
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        segment = directory / segment_name(1)
        segment.write_bytes(data[:cut] + bytes(zeros))
        store = DurableStore(directory)  # a crash artifact: must not raise
        try:
            assert state_fingerprint(store.db) == torn_world["fingerprint"]
            report = store.report
            assert report.torn_bytes > 0 or report.discarded_uncommitted > 0
            assert segment.stat().st_size == base
        finally:
            store.close(commit=False)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_damaged_complete_frame_over_zeros_is_loud(torn_world, tmp_path, where):
    data = bytearray(torn_world["data"])
    base = torn_world["base"]
    length = int.from_bytes(data[base + 2 : base + 6], "big")
    start, end = base + HEADER_LEN, base + HEADER_LEN + length
    position = {"first": start, "middle": (start + end) // 2, "last": end - 1}[where]
    data[position] ^= 0xFF
    segment = tmp_path / segment_name(1)
    segment.write_bytes(bytes(data) + bytes(RESERVE_CHUNK))
    with pytest.raises(WalCorruptionError):
        read_wal(segment)
    with pytest.raises(WalCorruptionError):
        DurableStore(tmp_path)


@settings(max_examples=200, deadline=None)
@given(
    data=st.binary(max_size=64), zeros=st.integers(0, 32), offset=st.integers(0, 120)
)
def test_all_zero_matches_the_byte_loop(data, zeros, offset):
    blob = data + bytes(zeros)
    assert _all_zero(blob, offset) == (not any(blob[offset:]))
