"""Differential tests: a saved screen written as one batch per table.

``PatternChain.write`` checks all of a screen's physical rows before it
stores any, then stores them as one batch per table: one listener call and
one ``insert_many`` WAL record each.  The reference here is the per-row
write it replaced, every physical row through ``Table.insert`` with one
``insert`` record each.  Random entries through the CORI, EndoPro and
MedScribe chains into two ``DurableStore``s must leave the same physical
rows, table versions, change-feed notes and ``state_fingerprint``, live
and after both stores are reopened.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.clinical import generate_truths
from repro.clinical.cori import build_cori_chain, build_cori_tool, cori_procedure_values
from repro.clinical.vendors import (
    build_endopro_chain,
    build_endopro_tool,
    build_medscribe_chain,
    build_medscribe_tool,
    endopro_values,
    medscribe_values,
)
from repro.guava import GuavaSource
from repro.relational import Database
from repro.storage import DurableStore
from repro.storage.engine import state_fingerprint
from repro.storage.wal import list_segments, read_segments
from repro.ui import DataEntrySession

TRUTHS = generate_truths(40, seed=11)


def _per_row_write(chain, db, form_name, naive_row):
    """The reference: each physical row inserted on its own, in order."""
    pairs = [(form_name, dict(naive_row))]
    for pattern, schemas in zip(chain.patterns, chain.levels):
        pairs = [
            emitted
            for table, row in pairs
            for emitted in pattern.write_to(db, table, row, schemas)
        ]
    for table, row in pairs:
        db.table(table).insert(row)
    return len(pairs)


def _enter_cori(session, truth) -> None:
    row = session.enter("procedure", cori_procedure_values(truth))
    for finding in truth.findings:
        session.enter(
            "finding",
            {
                "procedure_id": row["record_id"],
                "finding_type": finding.finding_type,
                "size_mm": finding.size_mm,
                "images_taken": finding.images_taken,
            },
        )
    for medication in truth.medications:
        session.enter(
            "medication",
            {
                "procedure_id": row["record_id"],
                "drug": medication.drug,
                "dosage_mg": medication.dosage_mg,
                "pills_per_day": medication.pills_per_day,
                "instructions": medication.instructions,
            },
        )


CONTRIBUTORS = {
    "cori": (build_cori_tool, build_cori_chain, _enter_cori),
    "endopro": (
        build_endopro_tool,
        build_endopro_chain,
        lambda session, truth: session.enter("endoscopy_report", endopro_values(truth)),
    ),
    "medscribe": (
        build_medscribe_tool,
        build_medscribe_chain,
        lambda session, truth: session.enter("visit", medscribe_values(truth)),
    ),
}


def _open(kind: str, directory: Path, per_row: bool):
    build_tool, build_chain, _ = CONTRIBUTORS[kind]
    store = DurableStore(directory, name=kind, fsync="never")
    tool = build_tool()
    chain = build_chain(tool)
    if per_row:
        chain.write = functools.partial(_per_row_write, chain)
    source = GuavaSource(kind, tool, chain, db=store.db)
    store.attach_source(source)
    return store, source


def _observed(store: DurableStore, source: GuavaSource) -> dict:
    db = store.db
    feed = source.feed
    return {
        "rows": {name: db.table(name).rows() for name in db.table_names()},
        "versions": {name: db.table(name).version for name in db.table_names()},
        "feed": (list(feed.log), feed.floor, feed.accounted),
        "fingerprint": state_fingerprint(db),
    }


def _logged_rows(directory: Path) -> tuple[list[str], list[dict]]:
    records, _ = read_segments(list_segments(directory))
    ops = [record["op"] for record in records]
    rows = []
    for record in records:
        if record["op"] == "insert_many":
            rows.extend(record["rows"])
        elif record["op"] == "insert":
            rows.append(record["row"])
    return ops, rows


class TestScreenBatchEqualsPerRowWrites:
    @given(
        kind=st.sampled_from(sorted(CONTRIBUTORS)),
        picks=st.lists(st.integers(0, len(TRUTHS) - 1), min_size=1, max_size=8),
        commit_every=st.integers(1, 3),
        snapshot_at=st.none() | st.integers(0, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_versions_feed_and_fingerprint_match(
        self, kind, picks, commit_every, snapshot_at
    ):
        enter = CONTRIBUTORS[kind][2]
        with tempfile.TemporaryDirectory() as tmp:
            seen = {}
            for side, per_row in (("batch", False), ("row", True)):
                directory = Path(tmp) / side
                store, source = _open(kind, directory, per_row)
                session = source.session()
                for step, pick in enumerate(picks):
                    enter(session, TRUTHS[pick])
                    if (step + 1) % commit_every == 0:
                        store.commit()
                    if step == snapshot_at:
                        store.snapshot()
                live = _observed(store, source)
                store.close()
                ops, logged = _logged_rows(directory)
                reopened, recovered_source = _open(kind, directory, per_row)
                recovered = _observed(reopened, recovered_source)
                reopened.close()
                assert recovered == live
                seen[side] = (live, ops, logged)

            (batch, batch_ops, batch_rows), (row, row_ops, row_rows) = (
                seen["batch"],
                seen["row"],
            )
            assert batch == row
            assert "insert" not in batch_ops
            assert "insert_many" not in row_ops
            if snapshot_at is None:
                # The same rows reach the log, grouped per table per screen.
                assert sorted(map(repr, batch_rows)) == sorted(map(repr, row_rows))


class TestWriteContract:
    @given(
        kind=st.sampled_from(sorted(CONTRIBUTORS)),
        picks=st.lists(st.integers(0, len(TRUTHS) - 1), min_size=1, max_size=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_write_returns_the_physical_rows_written(self, kind, picks):
        build_tool, build_chain, enter = CONTRIBUTORS[kind]
        tool = build_tool()
        chain, reference = build_chain(tool), build_chain(tool)
        batch_db, row_db = Database("d"), Database("d")
        chain.deploy(batch_db)
        reference.deploy(row_db)
        counts: dict[str, list[int]] = {"batch": [], "row": []}
        batch_session = DataEntrySession(
            tool,
            writer=lambda form, row: counts["batch"].append(
                chain.write(batch_db, form, row)
            ),
        )
        row_session = DataEntrySession(
            tool,
            writer=lambda form, row: counts["row"].append(
                _per_row_write(reference, row_db, form, row)
            ),
        )
        for pick in picks:
            enter(batch_session, TRUTHS[pick])
            enter(row_session, TRUTHS[pick])
        assert counts["batch"] == counts["row"]
        assert sum(counts["batch"]) == batch_db.total_rows()
        assert state_fingerprint(batch_db) == state_fingerprint(row_db)
