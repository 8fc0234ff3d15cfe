"""Fuzzing recovery over arbitrary store directories.

A store directory is a front door: whatever files it holds, opening a
:class:`DurableStore` on it and ``python -m repro storage recover`` may
fail only with a typed :mod:`repro.errors` exception (the CLI reports it
and exits 1).  The directories here start from a real checkpointed store
and get its files dropped, bit-flipped, truncated or extended, plus
segments of well-framed records with arbitrary contents (so the damage
reaches replay, past the CRC checks: among them ``insert`` and
``insert_many`` rows logged as arrays of any length, as objects, and as
other values), snapshots of well-framed junk, and stray files under the
names recovery scans for.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.errors import ReproError
from repro.storage.crashtest import run_workload
from repro.storage.engine import DurableStore
from repro.storage.snapshots import snapshot_name
from repro.storage.wal import segment_name

SEED = 211


@pytest.fixture(scope="module")
def base_store(tmp_path_factory):
    """The files of a store with two snapshots and a WAL suffix, and the
    LSN its next record would take."""
    base = tmp_path_factory.mktemp("recover_base")
    run_workload(base, SEED, commits=4, rows_per_commit=3, snapshot_every=2)
    files = {path.name: path.read_bytes() for path in sorted(base.iterdir())}
    store = DurableStore(base, fsync="never")
    next_lsn = store.last_lsn + 1
    store.close()
    return files, next_lsn


def _frame(magic: bytes, payload: bytes) -> bytes:
    header = len(payload).to_bytes(4, "big") + zlib.crc32(payload).to_bytes(4, "big")
    return magic + header + payload


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["events", "ckpt", "id", "day", "x", "", "2004-01-02", "wal"]),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "n", "day", "name", "x"]), inner, max_size=3),
    max_leaves=8,
)
#: A logged row: an array (the crash workload's tables have 6 and 2
#: columns, so most lengths are wrong), an object, or any other value.
_row = (
    st.lists(_scalars, max_size=7)
    | st.dictionaries(st.sampled_from(["id", "n", "day", "zz"]), _scalars)
    | _json
)
_SCHEMA = {
    "name": "t",
    "columns": [{"name": "id", "dtype": "integer", "nullable": False}],
    "primary_key": ["id"],
}
_FIELDS = {
    "table": st.sampled_from(["events", "ckpt", "t", "nope"]) | _json,
    "row": _row,
    "rows": st.lists(_row, max_size=3) | _json,
    "positions": st.lists(st.integers(-2, 30), max_size=4) | _json,
    "changes": st.dictionaries(st.sampled_from(["n", "flagged", "zz"]), _scalars)
    | _json,
    "columns": st.lists(st.sampled_from(["id", "day", "zz"]), max_size=2) | _json,
    "schema": st.just(_SCHEMA) | _json,
    "name": st.sampled_from(["events", "ckpt", "t", "nope"]) | _json,
    "partitioning": _json,
    "key": _json,
    "doc": _json,
    "source": _json,
    "version": _json,
    "record": _json,
    "form": _json,
}
_OPS = [
    "commit",
    "create_table",
    "drop_table",
    "insert",
    "insert_many",
    "update",
    "delete",
    "create_index",
    "drop_index",
    "repartition",
    "meta",
    "feed",
    "bogus",
]


@st.composite
def _records(draw, lsn):
    """One WAL payload: usually an operation with some of its fields."""
    if draw(st.integers(0, 15)) == 0:
        return draw(_json)
    record = {"lsn": lsn, "op": draw(st.sampled_from(_OPS))}
    for name in draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=4)):
        record[name] = draw(_FIELDS[name])
    return record


@st.composite
def _segments(draw, next_lsn):
    """A segment of framed records; most continue the store's log, so
    replay reaches them."""
    first = draw(st.just(next_lsn) | st.just(next_lsn) | st.integers(0, 30))
    records = [draw(_records(first + offset)) for offset in range(draw(st.integers(0, 5)))]
    if draw(st.booleans()):
        records.append({"lsn": first + len(records), "op": "commit"})
    data = b"".join(_frame(b"RW", json.dumps(r).encode()) for r in records)
    return segment_name(first), data


@st.composite
def _snapshots(draw):
    frames = draw(st.lists(_json, max_size=3))
    data = b"".join(_frame(b"RS", json.dumps(f).encode()) for f in frames)
    return snapshot_name(draw(st.integers(0, 30))), data


_NAMES = st.sampled_from(
    [
        "wal-000000000001.log",
        "wal-000000000999.log",
        "wal-1.log",
        "wal-.log",
        "wal.log",
        "snapshot-000000000003.snap",
        "snapshot-abc.snap",
        "snapshot-.snap",
        "snapshot--1.snap",
        "x.snap",
        "snapshot-000000000004.snap.tmp",
        "notes.txt",
    ]
)


@st.composite
def _damage(draw, data):
    """``data`` bit-flipped, truncated or extended (or as it is)."""
    kind = draw(st.integers(0, 3))
    if kind == 0 or not data:
        return data + draw(st.binary(max_size=12))
    position = draw(st.integers(0, len(data) - 1))
    if kind == 1:
        flipped = data[position] ^ (1 << draw(st.integers(0, 7)))
        return data[:position] + bytes([flipped]) + data[position + 1 :]
    if kind == 2:
        return data[:position]
    return data


@st.composite
def _directories(draw, base_store):
    base_files, next_lsn = base_store
    files = {}
    for name, data in base_files.items():
        if draw(st.integers(0, 3)):
            files[name] = draw(_damage(data))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            name, data = draw(_segments(next_lsn))
        elif kind == 1:
            name, data = draw(_snapshots())
        else:
            name, data = draw(_NAMES), draw(st.binary(max_size=40))
        files[name] = data
    return files


def _populate(directory: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        (directory / name).write_bytes(data)


def _cli_recover(directory: Path) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(["storage", "recover", "--dir", str(directory)])


class TestRecoverFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_only_typed_errors_escape(self, base_store, data):
        files = data.draw(_directories(base_store))
        with tempfile.TemporaryDirectory() as raw:
            directory = Path(raw)
            _populate(directory, files)
            try:
                DurableStore(directory, fsync="never").close()
            except ReproError:
                pass
        with tempfile.TemporaryDirectory() as raw:
            directory = Path(raw)
            _populate(directory, files)
            assert _cli_recover(directory) in (0, 1)

    def test_the_undamaged_store_recovers(self, base_store, tmp_path):
        _populate(tmp_path, base_store[0])
        assert _cli_recover(tmp_path) == 0

    def test_the_command_line_reports_a_bad_directory(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(b"old format")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "storage", "recover", "--dir", str(tmp_path)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("recovery failed: RecoveryError")
