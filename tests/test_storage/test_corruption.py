"""Property-based torn-write and corruption suite.

The contract under test: recovery either restores exactly the last
durable commit, or fails loudly with a named :class:`StorageError` — it
**never silently loses a committed write**.

* Truncating the last WAL segment at *any* byte offset is a legal crash
  artifact (appends are sequential, so a crash leaves a strict prefix):
  recovery must always succeed, to exactly the commits whose frames are
  fully contained in the prefix, and cut the file back to the last of
  them.
* Flipping a bit strictly before the final WAL frame damages a region
  recovery has no license to drop: it must raise.  A flip inside the
  final frame is physically indistinguishable from a torn append (the
  same end-of-log ambiguity Postgres and SQLite accept), so it may be
  tolerated — but then recovery must land exactly on the previous
  commit, never on fabricated state.
* A *sealed* segment (any but the last) was complete when the log
  rotated past it, so any bit flip or truncation in it must raise — even
  one that would count as a torn tail in the last segment — and so must
  a missing segment in the middle of the run recovery reads.
* Damaging the newest snapshot (bit-flip or truncation) never loses
  data: recovery falls back to the older snapshot plus the retained WAL
  suffix and reaches the same final state.  Damaging *every* snapshot
  when the WAL no longer reaches back to LSN 1 must raise.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryError, StorageError
from repro.storage.crashtest import (
    apply_op,
    build_ops,
    oracle_fingerprints,
    recovered_commit,
    run_workload,
)
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.snapshots import list_snapshots
from repro.storage.wal import HEADER_LEN, list_segments, segment_name

WAL_SEED, SNAP_SEED, CHAIN_SEED = 101, 103, 107
COMMITS, ROWS = 4, 6
CHAIN_COMMITS = 7
SEGMENT = segment_name(1)


def _frame_layout(data: bytes) -> tuple[list[int], list[int]]:
    """(frame start offsets, end offsets of commit-record frames)."""
    starts: list[int] = []
    commit_ends: list[int] = []
    offset = 0
    while offset < len(data):
        starts.append(offset)
        length = int.from_bytes(data[offset + 2 : offset + 6], "big")
        end = offset + HEADER_LEN + length
        if json.loads(data[offset + HEADER_LEN : end]).get("op") == "commit":
            commit_ends.append(end)
        offset = end
    return starts, commit_ends


@pytest.fixture(scope="module")
def wal_world(tmp_path_factory):
    """A completed workload whose WAL reaches back to LSN 1 (no snapshots)."""
    base = tmp_path_factory.mktemp("walworld")
    run_workload(base, WAL_SEED, commits=COMMITS, rows_per_commit=ROWS)
    assert list_segments(base) == [base / SEGMENT]
    data = (base / SEGMENT).read_bytes()
    starts, commit_ends = _frame_layout(data)
    return {
        "data": data,
        "commit_ends": commit_ends,
        "final_frame_start": starts[-1],
        "oracle": oracle_fingerprints(WAL_SEED, commits=COMMITS, rows_per_commit=ROWS),
    }


@pytest.fixture(scope="module")
def snap_world(tmp_path_factory):
    """A workload checkpointed twice: two snapshots plus a WAL suffix."""
    base = tmp_path_factory.mktemp("snapworld")
    final = run_workload(
        base, SNAP_SEED, commits=COMMITS, rows_per_commit=ROWS, snapshot_every=2
    )
    assert len(list_snapshots(base)) == 2
    return {"dir": base, "final": final}


@pytest.fixture(scope="module")
def chain_world(tmp_path_factory):
    """The oldest of three snapshots plus the three segments written since.

    Recovery from that snapshot reads two sealed segments and the last
    one, so damage to a sealed segment lies on its path.
    """
    base = tmp_path_factory.mktemp("chainworld")
    store = DurableStore(base, snapshots_kept=3)
    commits = 0
    for op in build_ops(CHAIN_SEED, CHAIN_COMMITS, ROWS):
        apply_op(store.db, op)
        if op[0] == "commit":
            store.commit()
            commits += 1
            if commits % 2 == 0:
                store.snapshot()
    store.close()
    for newer in list_snapshots(base)[1:]:
        newer.unlink()
    assert len(list_segments(base)) == 3
    oracle = oracle_fingerprints(
        CHAIN_SEED, commits=CHAIN_COMMITS, rows_per_commit=ROWS
    )
    return {"dir": base, "final": oracle[CHAIN_COMMITS]}


@settings(max_examples=60, deadline=None)
@given(raw=st.integers(min_value=0, max_value=2**31), bit=st.integers(0, 7))
def test_wal_bitflips_never_silently_lose_a_commit(wal_world, raw, bit):
    data = bytearray(wal_world["data"])
    pos = raw % len(data)
    data[pos] ^= 1 << bit
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / SEGMENT).write_bytes(bytes(data))
        if pos < wal_world["final_frame_start"]:
            # Damage strictly before the final frame: a committed region
            # was altered, recovery has no license to guess — must raise.
            with pytest.raises(StorageError):
                DurableStore(directory).close(commit=False)
            return
        # Damage inside the final frame: either a loud failure, or torn-
        # tail tolerance landing exactly on the previous commit.
        try:
            store = DurableStore(directory)
        except StorageError:
            return
        try:
            reached = recovered_commit(store.db)
            assert reached == COMMITS - 1
            assert state_fingerprint(store.db) == wal_world["oracle"][reached]
        finally:
            store.close(commit=False)


@settings(max_examples=60, deadline=None)
@given(raw=st.integers(min_value=0, max_value=2**31))
def test_any_wal_truncation_recovers_to_last_contained_commit(wal_world, raw):
    data = wal_world["data"]
    cut = raw % (len(data) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / SEGMENT).write_bytes(data[:cut])
        store = DurableStore(directory)  # must never raise: crash artifact
        try:
            contained = [end for end in wal_world["commit_ends"] if end <= cut]
            expected = len(contained)
            assert recovered_commit(store.db) == expected
            assert state_fingerprint(store.db) == wal_world["oracle"][expected]
            # The torn or uncommitted tail was cut off in place.
            kept = contained[-1] if contained else 0
            assert (directory / SEGMENT).stat().st_size == kept
        finally:
            store.close(commit=False)


def _copy_world(source: Path, destination: Path) -> Path:
    target = destination / "store"
    shutil.copytree(source, target)
    return target


@settings(max_examples=40, deadline=None)
@given(raw=st.integers(min_value=0, max_value=2**31), bit=st.integers(0, 7))
def test_newest_snapshot_bitflip_falls_back_without_loss(snap_world, raw, bit):
    with tempfile.TemporaryDirectory() as tmp:
        directory = _copy_world(snap_world["dir"], Path(tmp))
        newest = list_snapshots(directory)[-1]
        data = bytearray(newest.read_bytes())
        data[raw % len(data)] ^= 1 << bit
        newest.write_bytes(bytes(data))
        store = DurableStore(directory)
        try:
            assert len(store.report.snapshot_fallbacks) == 1
            assert state_fingerprint(store.db) == snap_world["final"]
        finally:
            store.close(commit=False)


@settings(max_examples=40, deadline=None)
@given(raw=st.integers(min_value=0, max_value=2**31))
def test_newest_snapshot_truncation_falls_back_without_loss(snap_world, raw):
    with tempfile.TemporaryDirectory() as tmp:
        directory = _copy_world(snap_world["dir"], Path(tmp))
        newest = list_snapshots(directory)[-1]
        data = newest.read_bytes()
        newest.write_bytes(data[: raw % len(data)])
        store = DurableStore(directory)
        try:
            assert len(store.report.snapshot_fallbacks) == 1
            assert state_fingerprint(store.db) == snap_world["final"]
        finally:
            store.close(commit=False)


@settings(max_examples=25, deadline=None)
@given(
    raw_a=st.integers(min_value=0, max_value=2**31),
    raw_b=st.integers(min_value=0, max_value=2**31),
)
def test_every_snapshot_damaged_with_pruned_wal_raises(snap_world, raw_a, raw_b):
    """With the WAL pruned past LSN 1, losing every snapshot must be loud."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = _copy_world(snap_world["dir"], Path(tmp))
        for path, raw in zip(list_snapshots(directory), (raw_a, raw_b)):
            data = bytearray(path.read_bytes())
            data[raw % len(data)] ^= 0x40
            path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            DurableStore(directory).close(commit=False)


def test_chain_world_recovers_through_sealed_segments(chain_world, tmp_path):
    directory = _copy_world(chain_world["dir"], tmp_path)
    store = DurableStore(directory)
    try:
        assert store.report.segments_read == 3
        assert store.report.skipped == 0
        assert state_fingerprint(store.db) == chain_world["final"]
    finally:
        store.close(commit=False)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.integers(min_value=0, max_value=2**31),
    bit=st.integers(0, 7),
    which=st.integers(0, 1),
)
def test_sealed_segment_bitflip_is_loud(chain_world, raw, bit, which):
    with tempfile.TemporaryDirectory() as tmp:
        directory = _copy_world(chain_world["dir"], Path(tmp))
        sealed = list_segments(directory)[which]
        data = bytearray(sealed.read_bytes())
        data[raw % len(data)] ^= 1 << bit
        sealed.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            DurableStore(directory).close(commit=False)


@settings(max_examples=60, deadline=None)
@given(raw=st.integers(min_value=0, max_value=2**31), which=st.integers(0, 1))
def test_sealed_segment_truncation_is_loud(chain_world, raw, which):
    with tempfile.TemporaryDirectory() as tmp:
        directory = _copy_world(chain_world["dir"], Path(tmp))
        sealed = list_segments(directory)[which]
        data = sealed.read_bytes()
        sealed.write_bytes(data[: raw % len(data)])
        with pytest.raises(StorageError):
            DurableStore(directory).close(commit=False)


def test_missing_middle_segment_raises(chain_world, tmp_path):
    directory = _copy_world(chain_world["dir"], tmp_path)
    list_segments(directory)[1].unlink()
    with pytest.raises(RecoveryError):
        DurableStore(directory).close(commit=False)
