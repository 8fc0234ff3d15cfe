"""The change feed's log is columnar: versions and record ids in
``array('q')``, forms in a list.

Random ``note`` programs (entries, unknown changes that clear the log,
and enough entries to prune it) run against the list-of-tuples log the
feed kept before, which is the reference: after every step the entries,
the floor, the accounted version, every span after a version and the
bytes of ``to_doc`` must match it.  A store that checkpoints a feed and
reopens from the snapshot alone recovers the same document.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_right
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.guava import GuavaSource
from repro.guava.source import ChangeFeedState
from repro.patterns import NaivePattern, PatternChain
from repro.storage import DurableStore
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form

LIMIT = 6


class TupleFeed:
    """The feed as one list of ``(version, form, record id)`` tuples."""

    def __init__(self, accounted: int = 0):
        self.log: list[tuple[int, str | None, int]] = []
        self.floor = 0
        self.accounted = accounted

    def note(self, version, record_id, form) -> None:
        self.accounted = version
        if record_id is None:
            self.floor = version
            self.log.clear()
            return
        self.log.append((version, form, record_id))
        if len(self.log) > LIMIT:
            half = len(self.log) // 2
            self.floor = self.log[half - 1][0]
            del self.log[:half]

    def since(self, version):
        start = bisect_right(self.log, version, key=lambda entry: entry[0])
        return [(form, rid) for _, form, rid in self.log[start:]]

    def to_doc(self) -> dict:
        return {"floor": self.floor, "accounted": self.accounted, "log": self.log}


_notes = st.lists(
    st.tuples(
        st.integers(0, 3),  # the version's step: writes may not move it
        st.one_of(*[st.integers(-3, 40)] * 6, st.none(), st.just(2**63 - 1)),
        st.sampled_from([None, "procedure", "visit"]),
    ),
    max_size=40,
)


def _bytes(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


class TestAgainstTheTupleLog:
    @given(_notes, st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_notes_clears_and_prunes_match(self, notes, accounted):
        with mock.patch("repro.guava.source.CHANGE_LOG_LIMIT", LIMIT):
            feed, reference = ChangeFeedState(accounted), TupleFeed(accounted)
            version = accounted
            for step, record_id, form in notes:
                version += step
                feed.note(version, record_id, form)
                reference.note(version, record_id, form)
                assert feed.log == reference.log
                assert (feed.floor, feed.accounted) == (
                    reference.floor,
                    reference.accounted,
                )
                assert _bytes(feed.to_doc()) == _bytes(reference.to_doc())
                for since in range(feed.floor - 1, version + 2):
                    assert list(feed.since(since)) == reference.since(since)
            loaded = ChangeFeedState.from_doc(json.loads(_bytes(feed.to_doc())))
            assert _bytes(loaded.to_doc()) == _bytes(feed.to_doc())
            assert loaded.log == feed.log

    def test_entries_are_kept_in_typed_arrays(self):
        feed = ChangeFeedState()
        feed.note(3, 7, "procedure")
        assert feed.versions == array("q", [3]) and feed.record_ids == array("q", [7])
        assert feed.forms == ["procedure"]

    def test_an_id_past_64_bits_is_an_unknown_change(self):
        feed = ChangeFeedState()
        feed.note(3, 7, "procedure")
        feed.note(5, 2**63, "procedure")
        assert (feed.log, feed.floor, feed.accounted) == ([], 5, 5)


def _durable_source(directory):
    tool = ReportingTool("feed", "1.0", forms=[build_fig2_form()])
    store = DurableStore(directory, name="feed", fsync="never")
    source = GuavaSource(
        "feed", tool, PatternChain(tool.naive_schemas(), [NaivePattern()]), db=store.db
    )
    store.attach_source(source)
    return store, source


class TestSnapshotRoundTrip:
    def test_a_feed_recovered_from_a_snapshot_is_the_same_document(self, tmp_path):
        with mock.patch("repro.guava.source.CHANGE_LOG_LIMIT", LIMIT):
            store, source = _durable_source(tmp_path)
            session = source.session()
            for smoking in ("Never", "Current", "Previous") * 3:
                session.enter("procedure", {"smoking": smoking})
            source.track_change(2, form="procedure")
            assert source.feed.floor > 0  # pruned
            doc = _bytes(source.feed.to_doc())
            store.snapshot()
            store.close()

            store, recovered = _durable_source(tmp_path)
            assert store.report.replayed == 0  # the feed came from the snapshot
            assert _bytes(recovered.feed.to_doc()) == doc
            assert isinstance(recovered.feed.versions, array)
            since = recovered.feed.floor
            assert recovered.changed_record_ids(since) == {
                rid for version, _, rid in recovered.feed.log if version > since
            }
            store.close()
