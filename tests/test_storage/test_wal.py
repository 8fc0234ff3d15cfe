"""WAL framing, fsync policies, and the torn-tail / corruption rules."""

import tracemalloc
import zlib

import pytest

from repro.errors import RecoveryError, StorageError, WalCorruptionError
from repro.storage.wal import (
    HEADER_LEN,
    MAGIC,
    RESERVE_CHUNK,
    RESERVE_HEADROOM,
    WriteAheadLog,
    _ZERO_BLOCK,
    iter_commits,
    list_segments,
    prune_segments,
    read_segments,
    read_wal,
    segment_name,
)


def _write(path, records, fsync="never"):
    wal = WriteAheadLog(path, fsync=fsync)
    for record in records:
        wal.append(record)
    wal.close()
    return wal


def test_roundtrip_preserves_records_and_lsns(tmp_path):
    path = tmp_path / "wal.log"
    _write(path, [{"op": "insert", "row": {"a": 1}}, {"op": "commit"}])
    records, tail = read_wal(path)
    assert [r["op"] for r in records] == ["insert", "commit"]
    assert [r["lsn"] for r in records] == [1, 2]
    assert tail == {"frames": 2, "torn_bytes": 0, "commit_end": path.stat().st_size}


def test_commit_end_marks_the_last_commit_frame(tmp_path):
    path = tmp_path / "wal.log"
    _write(path, [{"op": "insert"}, {"op": "commit"}])
    committed = path.stat().st_size
    wal = WriteAheadLog(path, fsync="never")
    wal.next_lsn = 3
    wal.append({"op": "insert"})
    wal.close()
    records, tail = read_wal(path)
    assert len(records) == 3
    assert tail["commit_end"] == committed < path.stat().st_size


def test_missing_file_reads_empty(tmp_path):
    records, tail = read_wal(tmp_path / "absent.log")
    assert records == [] and tail["frames"] == 0


def test_append_returns_lsn_and_counts_bytes(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync="never")
    assert wal.append({"op": "commit"}) == 1
    assert wal.append({"op": "commit"}) == 2
    assert wal.appended_records == 2
    assert wal.appended_bytes > 2 * HEADER_LEN
    wal.close()


def test_fsync_policy_validation(tmp_path):
    with pytest.raises(StorageError):
        WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")


def test_a_reserve_fill_spanning_several_blocks_writes_block_by_block(tmp_path):
    # Each fill below spans many zero blocks from an unaligned start; it
    # writes the shared block over and over, so it allocates no buffer of
    # its own size, and the file holds the frames, then zeros to a chunk
    # boundary.
    path = tmp_path / segment_name(1)
    wal = WriteAheadLog(path)
    for blob in (5000, RESERVE_CHUNK):
        wal.append({"op": "insert", "blob": "y" * blob})
        wal.append({"op": "commit"})
        reserved = (wal.appended_bytes + RESERVE_HEADROOM) // RESERVE_CHUNK + 1
        fill = reserved * RESERVE_CHUNK - wal.appended_bytes
        assert fill > 4 * len(_ZERO_BLOCK) and wal.appended_bytes % len(_ZERO_BLOCK)
        tracemalloc.start()
        try:
            wal.commit_sync()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fill // 4
        data = path.read_bytes()
        end = wal.appended_bytes
        assert len(data) == reserved * RESERVE_CHUNK
        assert data[end:] == bytes(fill)
        records, tail = read_wal(path)
        assert [r["op"] for r in records][-2:] == ["insert", "commit"]
        assert tail == {"frames": len(records), "torn_bytes": 0, "commit_end": end}
    wal.close()
    assert path.stat().st_size == wal.appended_bytes


def test_fsync_commit_syncs_only_on_commit_sync(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync="commit")
    wal.append({"op": "insert"})
    wal.append({"op": "commit"})
    assert wal.syncs == 0
    wal.commit_sync()
    assert wal.syncs == 1
    wal.close()


def test_fsync_never_flushes_without_sync(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync="never")
    wal.append({"op": "commit"})
    wal.commit_sync()
    assert wal.syncs == 0
    wal.close()


def test_every_truncation_point_is_tolerated_as_torn(tmp_path):
    """The prefix-write property: ANY tail truncation recovers cleanly."""
    path = tmp_path / "wal.log"
    _write(path, [{"op": "insert", "n": i} for i in range(5)])
    data = path.read_bytes()
    # Record boundaries: parse them to know the expected survivors.
    boundaries = [0]
    offset = 0
    while offset < len(data):
        length = int.from_bytes(data[offset + 2 : offset + 6], "big")
        offset += HEADER_LEN + length
        boundaries.append(offset)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        records, tail = read_wal(path)
        survivors = sum(1 for b in boundaries[1:] if b <= cut)
        assert len(records) == survivors, f"cut at {cut}"
        in_frame = cut not in boundaries
        assert (tail["torn_bytes"] > 0) == in_frame, f"cut at {cut}"


def test_zero_filled_tail_ends_cleanly(tmp_path):
    """Zeros after the last frame are the reserve, not a crash artifact."""
    path = tmp_path / "wal.log"
    _write(path, [{"op": "commit"}])
    with open(path, "ab") as handle:
        handle.write(b"\x00" * 64)
    records, tail = read_wal(path)
    assert len(records) == 1
    assert tail["torn_bytes"] == 0


def test_torn_frame_over_zeros_is_torn(tmp_path):
    path = tmp_path / "wal.log"
    _write(path, [{"op": "commit"}, {"op": "insert", "n": 2}])
    data = path.read_bytes()
    second = HEADER_LEN + int.from_bytes(data[2:6], "big")
    cut = second + HEADER_LEN + 3  # three payload bytes of the second frame
    path.write_bytes(data[:cut] + b"\x00" * 64)
    records, tail = read_wal(path)
    assert [r["lsn"] for r in records] == [1]
    assert tail["torn_bytes"] == cut - second


def test_garbage_tail_without_magic_is_loud(tmp_path):
    path = tmp_path / "wal.log"
    _write(path, [{"op": "commit"}])
    with open(path, "ab") as handle:
        handle.write(b"XY garbage that is not a frame")
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_payload_bitflip_is_loud(tmp_path):
    path = tmp_path / "wal.log"
    _write(path, [{"op": "insert", "n": 1}, {"op": "commit"}])
    data = bytearray(path.read_bytes())
    data[HEADER_LEN + 2] ^= 0xFF  # inside the first record's payload
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_crc_bitflip_is_loud(tmp_path):
    path = tmp_path / "wal.log"
    _write(path, [{"op": "commit"}])
    data = bytearray(path.read_bytes())
    data[7] ^= 0x01  # inside the CRC field
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_length_bitflip_mid_file_is_loud_not_torn(tmp_path):
    """A frame claiming to run past EOF, with durable frames after the
    damage, is corruption — a torn write can never be followed by valid
    bytes, so the forward scan must refuse to treat it as a tail."""
    path = tmp_path / "wal.log"
    _write(path, [{"op": "insert", "n": 1}, {"op": "insert", "n": 2}, {"op": "commit"}])
    data = bytearray(path.read_bytes())
    data[5] |= 0x80  # FIRST frame's length low byte: end now past EOF
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_length_overrun_in_final_frame_is_torn(tmp_path):
    """The same damage in the final frame is indistinguishable from a torn
    append (nothing valid follows), so it is tolerated as a tail."""
    path = tmp_path / "wal.log"
    _write(path, [{"op": "commit"}, {"op": "insert", "n": 2}])
    data = bytearray(path.read_bytes())
    # Find the second frame's header and inflate its length field a
    # little (low byte): the frame now claims to run just past EOF.
    first_len = int.from_bytes(data[2:6], "big")
    second = HEADER_LEN + first_len
    data[second + 5] |= 0x80
    path.write_bytes(bytes(data))
    records, tail = read_wal(path)
    assert [r["lsn"] for r in records] == [1]
    assert tail["torn_bytes"] > 0


def test_implausible_length_is_loud(tmp_path):
    path = tmp_path / "wal.log"
    payload = b"{}"
    frame = (
        MAGIC
        + (1 << 30).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )
    path.write_bytes(frame)
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_lsn_gap_is_loud(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path, fsync="never")
    wal.append({"op": "commit"})
    wal.next_lsn = 5  # splice: the next record skips lsns 2-4
    wal.append({"op": "commit"})
    wal.close()
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def test_record_without_lsn_is_loud(tmp_path):
    path = tmp_path / "wal.log"
    payload = b'{"op":"commit"}'
    frame = (
        MAGIC
        + len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )
    path.write_bytes(frame)
    with pytest.raises(WalCorruptionError):
        read_wal(path)


def _segmented(tmp_path, commits_per_segment=(2, 2, 1)):
    """A log rotated after each group of commits; returns its segments."""
    wal = WriteAheadLog(tmp_path / segment_name(1), fsync="never")
    for position, count in enumerate(commits_per_segment):
        if position:
            wal.rotate()
        for _ in range(count):
            wal.append({"op": "insert"})
            wal.append({"op": "commit"})
    wal.close()
    return list_segments(tmp_path)


def test_rotate_seals_segment_and_resumes(tmp_path):
    segments = _segmented(tmp_path)
    assert [p.name for p in segments] == [
        segment_name(1),
        segment_name(5),
        segment_name(9),
    ]
    records, reports = read_segments(segments)
    assert [r["lsn"] for r in records] == list(range(1, 11))
    assert [(r["first_lsn"], r["last_lsn"], r["records"]) for r in reports] == [
        (1, 4, 4),
        (5, 8, 4),
        (9, 10, 2),
    ]


def test_list_segments_ignores_other_files(tmp_path):
    segments = _segmented(tmp_path, (1,))
    for name in ("wal.log", "wal-1.log", segment_name(3) + ".tmp", "wal-x.log"):
        (tmp_path / name).write_bytes(b"")
    assert list_segments(tmp_path) == segments


def test_sealed_segment_torn_tail_is_loud(tmp_path):
    first, second, last = _segmented(tmp_path)
    first.write_bytes(first.read_bytes()[:-3])
    with pytest.raises(WalCorruptionError):
        read_segments([first, second, last])
    # The same cut in the last segment is a crash artifact.
    last.write_bytes(last.read_bytes()[:-3])
    records, reports = read_segments([last])
    assert len(records) == 1 and reports[0]["torn_bytes"] > 0


def test_sealed_segment_must_end_with_a_commit(tmp_path):
    first, second, _ = _segmented(tmp_path)
    records, _ = read_wal(first)
    (tmp_path / segment_name(1)).unlink()
    _write(tmp_path / segment_name(1), [{"op": r["op"]} for r in records[:-1]])
    with pytest.raises(WalCorruptionError):
        read_segments([first, second])


def test_segment_name_must_match_first_record(tmp_path):
    _, second, _ = _segmented(tmp_path)
    renamed = second.with_name(segment_name(6))
    second.rename(renamed)
    with pytest.raises(WalCorruptionError):
        read_segments([renamed])


def test_missing_middle_segment_is_a_gap(tmp_path):
    first, second, last = _segmented(tmp_path)
    second.unlink()
    with pytest.raises(RecoveryError):
        read_segments([first, last])


def test_prune_segments_deletes_only_covered_prefix(tmp_path):
    first, second, last = _segmented(tmp_path)
    assert prune_segments(tmp_path, covered_lsn=7) == [first]
    assert prune_segments(tmp_path, covered_lsn=10) == [second]
    # The active segment stays even when everything in it is covered.
    assert list_segments(tmp_path) == [last]


def test_iter_commits_indexes(tmp_path):
    records = [{"op": "insert"}, {"op": "commit"}, {"op": "insert"}, {"op": "commit"}]
    assert list(iter_commits(records)) == [1, 3]
