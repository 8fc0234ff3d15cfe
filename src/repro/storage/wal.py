"""The write-ahead log: CRC-framed, torn-tail-tolerant, append-only redo.

Every mutation the engine applies is mirrored here *after* it succeeds in
memory (a redo-only log: there is nothing to undo, recovery simply stops
at the last commit record).  One frame per record::

    magic "RW" (2) | payload length (4, big-endian) | crc32(payload) (4) | payload

Payloads are compact JSON documents carrying a monotone ``lsn`` plus the
operation (see :mod:`repro.storage.engine` for the op vocabulary).

**Segments.**  The log is a run of numbered files,
``wal-<first lsn, 12 digits>.log`` (:func:`segment_name`); appends go to
the newest, the *active* segment.  :meth:`WriteAheadLog.rotate` seals it
and opens the next one at a checkpoint, right after a commit record, so
every sealed segment ends with a commit and the segments chain without
gaps: each one's name is one past the previous one's last LSN.  Old
segments are deleted whole (:func:`prune_segments`), never rewritten.

**Reserve.**  A commit's fsync is cheapest when it rewrites blocks the
file already has: an append past the end also has to journal the new
size.  So the active segment keeps a zero-filled *reserve* ahead of its
write position.  A durable sync that finds less than
:data:`RESERVE_HEADROOM` of it left first zero-fills the file up to the
next :data:`RESERVE_CHUNK` boundary, inside the same fsync; the commits
after it overwrite zeros and leave the file's size alone.  The reserve
is taken lazily (opening a log writes nothing, and ``fsync="never"``
never syncs, so never reserves), and :meth:`WriteAheadLog.close`, hence
:meth:`~WriteAheadLog.rotate`, cuts it off: sealed segments and cleanly
closed logs end exactly at their last frame.

**Torn-tail tolerance vs. corruption.**  A crash mid-append leaves a
strict *prefix* of the intended frame bytes, followed by nothing (the
end of the file) or by zeros (the reserve): appends are sequential, and
nothing valid can follow a torn write.  Replay therefore distinguishes:

* *clean end* — the remaining bytes are all zero: the unused reserve
  (or a filesystem's zero-fill after a crash).  Nothing is torn.
* *torn tail* — a frame whose written bytes stop before its end (header
  or payload cut short), followed only by zeros or by the end of the
  file, with no valid frame after it.  A frame is complete only when its
  last byte is non-zero, since a JSON payload never ends in a zero byte.
  Tolerated in the last segment only: replay stops at the last complete
  frame, and recovery cuts the file back in place.
* *corruption* — a complete frame whose CRC or JSON fails, a magic
  mismatch, non-zero bytes after a cut-short frame, or a bad region with
  any valid frame *after* it (a torn write cannot be followed by durable
  bytes).  Raises :class:`~repro.errors.WalCorruptionError`: a committed
  region was damaged and recovery must fail loudly rather than silently
  drop a durable write.  In a sealed segment any damage is corruption,
  torn tails included: nothing was appending to it when the process
  died.

**Fsync policy** (:data:`FSYNC_POLICIES`): ``"commit"`` (default)
fsyncs once per commit record — the classic group-commit durability
point; ``"never"`` leaves flushing to the OS (fastest, durable only on
clean close).
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

from repro.errors import RecoveryError, StorageError, WalCorruptionError

try:  # the hot serializer when present; stdlib json otherwise
    import orjson
except ImportError:  # pragma: no cover - depends on the environment
    orjson = None  # type: ignore[assignment]

MAGIC = b"RW"
HEADER_LEN = 10  # magic (2) + length (4) + crc32 (4)

#: One C call building the whole frame header (magic, length, crc).
_PACK_HEADER = struct.Struct(">2sII").pack

#: Frames above this are rejected on read: a flipped high bit in the
#: length field must not masquerade as an absurdly long torn tail.
MAX_FRAME_PAYLOAD = 1 << 26  # 64 MiB

FSYNC_POLICIES = ("commit", "never")

#: The reserve grows in whole chunks of zeros, so an active segment's size
#: is a multiple of this while a reserve is held.
RESERVE_CHUNK = 1 << 20  # 1 MiB

#: A durable sync tops the reserve up when less than this is left ahead
#: of the write position.
RESERVE_HEADROOM = 1 << 16  # 64 KiB

#: The reserve is zero-filled by writing this block over and over, so a
#: fill never allocates a buffer of its own size.
_ZERO_BLOCK = bytes(1 << 16)  # 64 KiB

#: Segment files are named ``wal-<first lsn padded to 12>.log``.
_SEGMENT_NAME = re.compile(r"wal-(\d{12,})\.log")

#: Test-only crash-injection hook signature: called with (record, frame
#: bytes, open file) *instead of* the normal write; used by the crash
#: harness to emit a torn prefix and SIGKILL itself mid-append.
AppendHook = Callable[[dict[str, Any], bytes, Any], bool]


def _json_default(value: object) -> object:
    """Serialize dates as ISO strings (schema coercion decodes on replay).

    Passed as ``json.dumps(default=...)`` so the hot append path can
    serialize validated rows by reference — no JSON-safe copy per row.
    """
    isoformat = getattr(value, "isoformat", None)
    if isoformat is not None:
        return isoformat()
    raise TypeError(f"unserializable WAL value {value!r}")


def _dumps_stdlib(doc: dict[str, Any]) -> bytes:
    return json.dumps(doc, separators=(",", ":"), default=_json_default).encode(
        "utf-8"
    )


if orjson is not None:

    def _dumps(doc: dict[str, Any]) -> bytes:
        """Compact JSON bytes (orjson ISO-encodes dates natively)."""
        try:
            return orjson.dumps(doc)
        except TypeError:  # pragma: no cover - defensive fallback
            return _dumps_stdlib(doc)

    _loads = orjson.loads
else:  # pragma: no cover - depends on the environment
    _dumps = _dumps_stdlib
    _loads = json.loads


def segment_name(first_lsn: int) -> str:
    return f"wal-{first_lsn:012d}.log"


def segment_first_lsn(path: Path) -> int:
    """The first LSN a segment holds, read from its file name."""
    return int(path.stem[len("wal-") :])


def list_segments(directory: Path) -> list[Path]:
    """Segment files in ``directory``, oldest first."""
    paths = [p for p in directory.glob("wal-*.log") if _SEGMENT_NAME.fullmatch(p.name)]
    return sorted(paths, key=segment_first_lsn)


class WriteAheadLog:
    """The active segment of the redo log, with explicit fsync control."""

    def __init__(
        self,
        path: str | Path,
        fsync: str = "commit",
        append_hook: AppendHook | None = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self._append_hook = append_hook
        #: LSN the next appended record receives; the engine seeds it from
        #: recovery (last seen LSN + 1).
        self.next_lsn = 1
        self._file = _open_segment(self.path)
        #: Where the zero-filled reserve ends (0: none taken since the file
        #: was opened).
        self._reserved = 0
        self.appended_records = 0
        self.appended_bytes = 0
        self.syncs = 0

    # -- writing ---------------------------------------------------------------

    def append(self, record: dict[str, Any]) -> int:
        """Frame and append one record; returns its LSN.

        The record dict is stamped with the LSN in place — callers hand
        over ownership (every engine call site builds a fresh dict).
        """
        lsn = self.next_lsn
        record["lsn"] = lsn
        stamped = record
        payload = _dumps(stamped)
        frame = _PACK_HEADER(MAGIC, len(payload), zlib.crc32(payload)) + payload
        hook = self._append_hook
        if hook is not None and hook(stamped, frame, self._file):
            # The hook consumed the append (crash injection); unreachable
            # in practice because injected crashes SIGKILL the process.
            return lsn  # pragma: no cover
        self._file.write(frame)
        self.next_lsn = lsn + 1
        self.appended_records += 1
        self.appended_bytes += len(frame)
        return lsn

    def flush(self) -> None:
        """Flush userspace buffers (durability still up to the OS)."""
        self._file.flush()

    def sync(self) -> None:
        """Flush buffers and fsync the file (an explicit durability point).

        Tops the reserve up first when it runs short, so the same fsync
        makes the new zeros durable and the next commits overwrite them.
        """
        handle = self._file
        handle.flush()
        end = handle.tell()
        if self._reserved - end < RESERVE_HEADROOM:
            # Zeros already lie in [end, reserved); fill from past them to
            # the chunk boundary beyond the headroom.
            start = max(end, self._reserved)
            chunks = (end + RESERVE_HEADROOM) // RESERVE_CHUNK + 1
            self._reserved = chunks * RESERVE_CHUNK
            handle.seek(start)
            block = memoryview(_ZERO_BLOCK)
            for offset in range(start, self._reserved, len(block)):
                handle.write(block[: self._reserved - offset])
            handle.seek(end)  # flushes the zeros
        os.fsync(handle.fileno())
        self.syncs += 1

    def commit_sync(self) -> None:
        """The durability action taken right after a commit record."""
        if self.fsync == "never":
            self._file.flush()
        else:
            self.sync()

    def rotate(self) -> None:
        """Seal the active segment and start ``wal-<next_lsn>.log``.

        Called right after a commit, so the sealed segment ends with a
        commit record, cut back to its last frame.  Creating the new file
        fsyncs the directory, which makes its name durable.
        """
        self.close()
        self.path = self.path.with_name(segment_name(self.next_lsn))
        self._file = _open_segment(self.path)
        self._reserved = 0

    def close(self) -> None:
        """Flush and close the file, cutting off any reserve.

        The cut is not fsynced: zeros past the last frame read as a clean
        end, so a crash that undoes it loses nothing.
        """
        handle = self._file
        handle.flush()
        if self._reserved:
            handle.truncate()  # at the write position: the last frame's end
        handle.close()


def _open_segment(path: Path) -> BinaryIO:
    """Open a segment read-write (not append-only) at the end of its bytes.

    Creating the file fsyncs its directory once, so the new name is
    durable before the first commit to it returns; reopening an existing
    segment does not.
    """
    try:
        handle = open(path, "x+b")
    except FileExistsError:
        handle = open(path, "r+b")
        handle.seek(0, os.SEEK_END)
    else:
        _fsync_directory(path.parent)
    return handle


def _fsync_directory(directory: Path) -> None:
    """Flush a rename's directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _has_valid_frame_after(data: bytes, offset: int) -> bool:
    """True when any complete valid frame parses after ``offset``.

    The torn-tail discriminator: a torn append is by construction the last
    thing in the file, so durable bytes after a bad region prove the
    damage is corruption, not a crash artifact.
    """
    probe = data.find(MAGIC, offset + 1)
    total = len(data)
    while probe != -1:
        if probe + HEADER_LEN <= total:
            length = int.from_bytes(data[probe + 2 : probe + 6], "big")
            end = probe + HEADER_LEN + length
            if length <= MAX_FRAME_PAYLOAD and end <= total:
                crc = int.from_bytes(data[probe + 6 : probe + 10], "big")
                if zlib.crc32(data[probe + HEADER_LEN : end]) == crc:
                    return True
        probe = data.find(MAGIC, probe + 1)
    return False


def read_wal(path: str | Path) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Replay a WAL file: (records in LSN order, tail report).

    The tail report carries ``torn_bytes`` (the torn frame's bytes at the
    physical tail, up to its last non-zero byte when zeros follow; 0 for
    a log that ends cleanly, reserve or not), ``frames``, and
    ``commit_end``: the byte offset just past the last commit frame (0
    when there is none), where recovery cuts off an uncommitted tail.  Raises
    :class:`WalCorruptionError` under the rules in the module docstring,
    including non-contiguous LSNs (a spliced or partially rewritten log).
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], {"frames": 0, "torn_bytes": 0, "commit_end": 0}
    records: list[dict[str, Any]] = []
    offset = 0
    total = len(data)
    torn = 0
    commit_end = 0
    previous_lsn: int | None = None
    while offset < total:
        remaining = total - offset
        if remaining < HEADER_LEN or data[offset : offset + 2] != MAGIC:
            if _all_zero(data, offset):
                break  # the reserve: a clean end
            if data.startswith(MAGIC[:remaining], offset):
                torn = remaining  # a header cut short by the end of the file
                break
            if data[offset] == MAGIC[0] and _all_zero(data, offset + 1):
                torn = 1  # a header cut short inside the reserve
                break
            if remaining < HEADER_LEN:
                raise WalCorruptionError(
                    f"{path}: unrecognized {remaining}-byte tail at offset {offset}"
                )
            raise WalCorruptionError(f"{path}: bad frame magic at offset {offset}")
        length = int.from_bytes(data[offset + 2 : offset + 6], "big")
        end = offset + HEADER_LEN + length
        if length > MAX_FRAME_PAYLOAD:
            raise WalCorruptionError(
                f"{path}: implausible frame length {length} at offset {offset}"
            )
        payload = data[offset + HEADER_LEN : end]
        crc = int.from_bytes(data[offset + 6 : offset + 10], "big")
        if end > total or not data[end - 1] or zlib.crc32(payload) != crc:
            # A frame is whole only if its last byte is non-zero; one cut
            # short by the end of the file or by zeros is a torn append.
            if end <= total and not _all_zero(data, end - 1):
                raise WalCorruptionError(
                    f"{path}: CRC mismatch in frame at offset {offset}"
                )
            if _has_valid_frame_after(data, offset):
                raise WalCorruptionError(
                    f"{path}: truncated frame at offset {offset} "
                    "with durable frames after it"
                )
            torn = remaining if end > total else len(data[offset:end].rstrip(b"\0"))
            break
        try:
            record = _loads(payload)
        except ValueError as exc:
            raise WalCorruptionError(
                f"{path}: undecodable frame at offset {offset}: {exc}"
            ) from exc
        lsn = record.get("lsn") if isinstance(record, dict) else None
        if not isinstance(lsn, int):
            raise WalCorruptionError(
                f"{path}: frame at offset {offset} carries no LSN"
            )
        if previous_lsn is not None and lsn != previous_lsn + 1:
            raise WalCorruptionError(
                f"{path}: LSN gap ({previous_lsn} -> {lsn}) at offset {offset}"
            )
        previous_lsn = lsn
        records.append(record)
        offset = end
        if record.get("op") == "commit":
            commit_end = end
    return records, {
        "frames": len(records),
        "torn_bytes": torn,
        "commit_end": commit_end,
    }


def read_segments(
    paths: list[Path],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Replay consecutive segments as one log: (records, one report each).

    Each report carries the segment's ``path``, ``first_lsn``,
    ``last_lsn`` (``first_lsn - 1`` when empty), ``records``,
    ``torn_bytes`` and ``commit_end``.  The torn-tail rules apply to the
    last segment only; a sealed one must be whole and end with a commit
    record, or :class:`WalCorruptionError` is raised, as it is for a file
    name that disagrees with the first record's LSN.  A segment that does
    not start one past the previous one's last LSN raises
    :class:`~repro.errors.RecoveryError`: records are missing.
    """
    records: list[dict[str, Any]] = []
    reports: list[dict[str, Any]] = []
    expected: int | None = None
    for position, path in enumerate(paths):
        first = segment_first_lsn(path)
        if expected is not None and first != expected:
            raise RecoveryError(
                f"{path}: WAL gap: the previous segment ends at lsn {expected - 1}"
            )
        chunk, tail = read_wal(path)
        if chunk and chunk[0]["lsn"] != first:
            raise WalCorruptionError(
                f"{path}: the file name says lsn {first} but the first "
                f"record is lsn {chunk[0]['lsn']}"
            )
        sealed = position < len(paths) - 1
        if sealed and (
            tail["torn_bytes"] or not chunk or chunk[-1].get("op") != "commit"
        ):
            raise WalCorruptionError(
                f"{path}: sealed segment is torn or does not end with a commit"
            )
        expected = chunk[-1]["lsn"] + 1 if chunk else first
        reports.append(
            {
                "path": str(path),
                "first_lsn": first,
                "last_lsn": expected - 1,
                "records": len(chunk),
                "torn_bytes": tail["torn_bytes"],
                "commit_end": tail["commit_end"],
            }
        )
        records.extend(chunk)
    return records, reports


def prune_segments(directory: Path, covered_lsn: int) -> list[Path]:
    """Delete the segments whose records all sit at or below ``covered_lsn``.

    Returns what was removed, oldest first.  A segment's last LSN is the
    next segment's first LSN minus one, so no file is read.  The active
    (newest) segment is never removed, and a crash between unlinks leaves
    a contiguous run of segments.
    """
    segments = list_segments(directory)
    removed: list[Path] = []
    for path, successor in zip(segments, segments[1:]):
        if segment_first_lsn(successor) - 1 > covered_lsn:
            break
        path.unlink()
        removed.append(path)
    return removed


def _all_zero(data: bytes, offset: int) -> bool:
    """True when every byte from ``offset`` on is zero (counted in C)."""
    return data.count(0, offset) == max(len(data) - offset, 0)


def iter_commits(records: list[dict[str, Any]]) -> Iterator[int]:
    """Indexes of commit records within ``records``."""
    for index, record in enumerate(records):
        if record.get("op") == "commit":
            yield index
