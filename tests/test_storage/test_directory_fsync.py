"""Directory fsyncs: a name the store creates is durable before it is used.

A new file's directory entry is not made durable by fsyncing the file,
so the log fsyncs the directory once whenever it creates a segment, and
the store fsyncs the parent when it creates its own directory.  A spy
records every such call.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.storage import engine, wal
from repro.storage.engine import DurableStore
from repro.storage.wal import list_segments, segment_name


@pytest.fixture
def synced(monkeypatch) -> list[Path]:
    calls: list[Path] = []
    monkeypatch.setattr(wal, "_fsync_directory", calls.append)
    monkeypatch.setattr(engine, "_fsync_directory", calls.append)
    return calls


def test_a_new_store_syncs_its_directory_and_first_segment(tmp_path, synced):
    directory = tmp_path / "store"
    store = DurableStore(directory)
    assert synced == [tmp_path, directory]
    assert list_segments(directory) == [directory / segment_name(1)]
    store.commit()
    store.close()
    assert synced == [tmp_path, directory]


def test_an_existing_store_directory_is_not_synced_again(tmp_path, synced):
    store = DurableStore(tmp_path)
    assert synced == [tmp_path]  # the first segment only
    store.close()


def test_reopening_a_segment_does_no_directory_fsync(tmp_path, synced):
    store = DurableStore(tmp_path)
    store.commit()
    store.close()
    synced.clear()
    reopened = DurableStore(tmp_path)
    reopened.commit()
    reopened.close()
    assert synced == []


def test_recovery_syncs_the_segment_it_creates(tmp_path, synced):
    store = DurableStore(tmp_path)
    store.set_meta("k", {"v": 1})
    store.snapshot()
    store.close()
    # The segment the checkpoint opened never reached the disk, so the
    # snapshot runs past the log's end and recovery starts a new one.
    for segment in list_segments(tmp_path):
        segment.unlink()
    synced.clear()
    recovered = DurableStore(tmp_path)
    assert synced == [tmp_path]
    assert list_segments(tmp_path) == [tmp_path / segment_name(3)]
    assert recovered.get_meta("k") == {"v": 1}
    recovered.close()
