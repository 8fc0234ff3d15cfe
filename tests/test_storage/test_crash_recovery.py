"""Kill-and-recover: SIGKILL a mutating child, recover, compare to an oracle.

Each test launches ``python -m repro.storage.crashtest`` as a real
subprocess, lets the crash-injection hook SIGKILL it at a chosen point
(mid-WAL-append, right after a commit, mid-snapshot write, mid-rotation,
right after rotation, right after a checkpoint), then opens the
directory with :class:`DurableStore` in this process and asserts the
recovered state is **bit-identical** to an in-memory oracle replay of
the same seeded workload up to the commit the child durably reached.
The ``ckpt`` table inside the workload declares that commit number, so
no IPC with the dead child is needed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.relational.algebra import Sort
from repro.relational.interpret import execute_interpreted
from repro.relational.query import Query, optimize, prepare_stream_plan
from repro.storage.crashtest import (
    build_ops,
    oracle_fingerprints,
    recovered_commit,
    run_workload,
)
from repro.storage.engine import DurableStore, state_fingerprint
from repro.storage.snapshots import CHUNK_ROWS, list_snapshots, snapshot_lsn
from repro.storage.wal import list_segments, segment_name

REPO_ROOT = Path(__file__).resolve().parents[2]


def _commit_end(ops, commits):
    """The index just past the ``commits``-th commit op."""
    seen = 0
    for index, op in enumerate(ops):
        if op[0] == "commit":
            seen += 1
            if seen == commits:
                return index + 1
    raise AssertionError(f"the workload has fewer than {commits} commits")


def _crash_child(
    directory, seed, kill, commits=8, snapshot_every=0, rows_per_commit=50
):
    """Run the harness in a subprocess, assert it died by SIGKILL, and
    return what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    argv = [
        sys.executable,
        "-m",
        "repro.storage.crashtest",
        "--dir",
        str(directory),
        "--seed",
        str(seed),
        "--kill",
        kill,
        "--commits",
        str(commits),
        "--rows-per-commit",
        str(rows_per_commit),
    ]
    if snapshot_every:
        argv += ["--snapshot-every", str(snapshot_every)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, (
        f"expected the child to die by SIGKILL, got {proc.returncode}\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    return proc.stdout


def _assert_recovered_matches_oracle(directory, seed, commits=8, rows_per_commit=50):
    store = DurableStore(directory)
    try:
        reached = recovered_commit(store.db)
        oracle = oracle_fingerprints(
            seed, commits=commits, rows_per_commit=rows_per_commit
        )
        assert state_fingerprint(store.db) == oracle[reached], (
            f"recovered state diverges from the oracle at commit {reached}"
        )
        return reached, store.report
    finally:
        store.close()


def _checkpoint_and_reopen(directory):
    """After recovery, one more checkpoint still round-trips exactly."""
    store = DurableStore(directory)
    expected = state_fingerprint(store.db)
    store.snapshot()
    store.close()
    reopened = DurableStore(directory)
    try:
        assert state_fingerprint(reopened.db) == expected
        assert reopened.report.skipped == 0
        assert reopened.report.segments_read == 1
    finally:
        reopened.close()


class TestKillPoints:
    @pytest.mark.parametrize("append_index", [40, 120, 333])
    def test_sigkill_mid_wal_append(self, tmp_path, append_index):
        _crash_child(tmp_path, seed=7, kill=f"torn:{append_index}")
        reached, report = _assert_recovered_matches_oracle(tmp_path, seed=7)
        assert report.torn_bytes > 0 or report.discarded_uncommitted > 0
        assert reached < 8  # it died before finishing the workload

    @pytest.mark.parametrize("commit_index", [1, 3, 6])
    def test_sigkill_right_after_commit(self, tmp_path, commit_index):
        _crash_child(tmp_path, seed=11, kill=f"post_commit:{commit_index}")
        reached, _ = _assert_recovered_matches_oracle(tmp_path, seed=11)
        assert reached == commit_index

    @pytest.mark.parametrize("commit_index", [2, 4])
    def test_sigkill_mid_snapshot_write(self, tmp_path, commit_index):
        _crash_child(tmp_path, seed=13, kill=f"mid_snapshot:{commit_index}")
        assert len(list(tmp_path.glob("*.tmp"))) == 1
        reached, report = _assert_recovered_matches_oracle(tmp_path, seed=13)
        assert reached == commit_index  # the commit was durable; only the
        # half-written checkpoint (a .tmp file) is lost, and recovery
        # deletes it
        assert report.temp_files_removed == 1
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("commit_index,snapshot_every", [(2, 0), (5, 2)])
    def test_sigkill_mid_rotation(self, tmp_path, commit_index, snapshot_every):
        _crash_child(
            tmp_path,
            seed=47,
            kill=f"mid_rotation:{commit_index}",
            snapshot_every=snapshot_every,
        )
        lsn = snapshot_lsn(list_snapshots(tmp_path)[-1])
        assert not (tmp_path / segment_name(lsn + 1)).exists()
        reached, report = _assert_recovered_matches_oracle(tmp_path, seed=47)
        assert reached == commit_index
        assert report.snapshot_lsn == lsn
        assert report.replayed == 0
        _checkpoint_and_reopen(tmp_path)

    @pytest.mark.parametrize("commit_index,snapshot_every", [(2, 0), (5, 2)])
    def test_sigkill_post_rotation(self, tmp_path, commit_index, snapshot_every):
        _crash_child(
            tmp_path,
            seed=53,
            kill=f"post_rotation:{commit_index}",
            snapshot_every=snapshot_every,
        )
        lsn = snapshot_lsn(list_snapshots(tmp_path)[-1])
        segments = list_segments(tmp_path)
        assert segments[-1] == tmp_path / segment_name(lsn + 1)
        # The obsolete segments were not deleted yet.
        assert len(segments) == (2 if snapshot_every == 0 else 3)
        reached, report = _assert_recovered_matches_oracle(tmp_path, seed=53)
        assert reached == commit_index
        assert (report.segments_read, report.skipped, report.replayed) == (1, 0, 0)
        _checkpoint_and_reopen(tmp_path)

    @pytest.mark.parametrize("commit_index", [2, 5])
    def test_sigkill_right_after_checkpoint(self, tmp_path, commit_index):
        _crash_child(tmp_path, seed=17, kill=f"post_snapshot:{commit_index}")
        reached, report = _assert_recovered_matches_oracle(tmp_path, seed=17)
        assert reached == commit_index
        assert report.snapshot is not None
        assert report.replayed == 0  # the checkpoint captured everything

    def test_sigkill_after_a_checkpoint_that_copied_chunks(self, tmp_path):
        # Seed 11 at 400 rows a commit: a delete in commit 1 and an update
        # in commit 2 make those checkpoints encode the events table, and
        # commit 4 only inserts (and drops an index), so the killed fourth
        # checkpoint copies the full chunk the third one wrote.
        printed = _crash_child(
            tmp_path,
            seed=11,
            kill="post_snapshot:4",
            commits=6,
            snapshot_every=1,
            rows_per_commit=400,
        )
        ops = build_ops(11, commits=6, rows_per_commit=400)
        kinds = {op[0] for op in ops[: _commit_end(ops, 2)]}
        assert {"update_mod", "delete_mod"} <= kinds
        counts = json.loads(printed.strip().splitlines()[-1])
        assert counts["chunks_copied"] >= 1
        reached, report = _assert_recovered_matches_oracle(
            tmp_path, seed=11, commits=6, rows_per_commit=400
        )
        assert reached == 4
        assert report.replayed == 0
        store = DurableStore(tmp_path)
        try:
            assert len(store.db.table("events")) > CHUNK_ROWS
        finally:
            store.close()

    def test_torn_append_with_periodic_checkpoints(self, tmp_path):
        _crash_child(tmp_path, seed=19, kill="torn:300", snapshot_every=2)
        reached, report = _assert_recovered_matches_oracle(tmp_path, seed=19)
        assert report.snapshot is not None  # recovery went through a snapshot
        assert reached >= 2

    def test_different_seeds_recover_independently(self, tmp_path):
        for seed in (23, 29):
            directory = tmp_path / f"seed-{seed}"
            _crash_child(directory, seed=seed, kill="torn:200")
            _assert_recovered_matches_oracle(directory, seed=seed)


class TestRecoveredExecution:
    def test_all_executors_agree_after_crash_recovery(self, tmp_path):
        _crash_child(tmp_path, seed=31, kill="torn:250")
        store = DurableStore(tmp_path)
        try:
            plan = Sort(
                Query.table("events")
                .where("score >= 1.0 AND flagged = TRUE")
                .select("id", "kind", "score")
                .plan,
                (("score", False), ("id", True)),
            )
            db = store.db
            expected = execute_interpreted(plan, db)
            assert prepare_stream_plan(plan, db).execute(db) == expected
            assert optimize(plan, db).execute(db) == expected
            assert plan.execute(db) == expected
        finally:
            store.close()

    def test_recovered_store_accepts_new_work_and_survives_again(self, tmp_path):
        _crash_child(tmp_path, seed=37, kill="post_commit:3")
        store = DurableStore(tmp_path)
        store.db.table("events").insert(
            {
                "id": 10_000,
                "kind": "after",
                "severity": 1,
                "score": 2.0,
                "day": None,
                "flagged": True,
            }
        )
        store.commit()
        expected = state_fingerprint(store.db)
        store.close()
        reopened = DurableStore(tmp_path)
        assert state_fingerprint(reopened.db) == expected
        reopened.close()


class TestHarnessOracle:
    def test_workload_is_deterministic(self, tmp_path):
        a = run_workload(tmp_path / "a", seed=41)
        b = run_workload(tmp_path / "b", seed=41)
        assert a == b

    def test_oracle_matches_durable_run(self, tmp_path):
        final = run_workload(tmp_path, seed=43, commits=5)
        assert final == oracle_fingerprints(43, commits=5)[5]

    def test_ops_cover_every_mutation_kind(self):
        kinds = {op[0] for op in build_ops(seed=1, commits=60)}
        assert {"insert", "commit", "set_ckpt"} <= kinds
        assert {"update_mod", "delete_mod", "create_index", "drop_index"} <= kinds
