"""A GUAVA source: reporting tool + pattern chain + physical database.

This is one "contributor" box of the paper's Figure 1: the tool defines
the UI, the chain defines how screens land in the database, and GUAVA
exposes it all through g-trees.

The source also keeps a *change feed* for incremental consumers: every
record saved through :meth:`GuavaSource.session` (and every out-of-band
mutation registered via :meth:`GuavaSource.track_change`) is logged
against the source's monotone data version — the summed data versions of
the tables its pattern chain deploys, so writes to other tables sharing
the database (a warehouse, say) never move it — and a warehouse refresh
can ask "which records changed since version v?" and reclassify only
those.  Mutations to the chain's tables that bypass both paths are
detected by comparing that version against the last accounted write, and
answered with "unknown" — the caller then falls back to a full rebuild
instead of trusting a stale feed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import count, repeat
from typing import Callable, Iterable

from repro.errors import GuavaError, ReproError
from repro.expr.ast import Identifier, InList, Literal
from repro.guava.derive import derive_all
from repro.guava.gtree import GTree
from repro.guava.query import GTreeQuery
from repro.guava.translate import translate_query
from repro.patterns.chain import PatternChain
from repro.relational.algebra import Plan, Select
from repro.obs.trace import current_tracer
from repro.relational.database import Database, restore_generation
from repro.relational.query import (
    cached_plan,
    optimize,
    prepare_stream_plan,
    rebind_in_lists,
    record_local,
)
from repro.ui.form import RECORD_ID
from repro.ui.session import DataEntrySession
from repro.ui.toolkit import ReportingTool
from repro.util.clock import Clock

Row = dict[str, object]

#: Change-feed entries kept before the oldest half is pruned; pruned spans
#: can no longer be enumerated and force a full rebuild.
CHANGE_LOG_LIMIT = 100_000

#: The record ids a change feed can log: 64-bit signed integers (the log
#: keeps them in an ``array('q')``); an id outside them is noted as an
#: unknown change.
_ID_MIN, _ID_MAX = -(2**63), 2**63 - 1

#: Tags each source's plan-cache keys, so two sources sharing a database
#: (even under one name, with different chains) never share an entry.
_SOURCE_SERIALS = count(1)


@dataclass(frozen=True)
class RowMap:
    """A pure function from one raw g-tree record to one output row.

    ``key`` states the function's structure: two maps under one key must
    map every record alike.  A full read given a map keeps and hands out
    *mapped* rows: an image of the shape's one kept raw read under
    ``key``, which a patch extends by mapping only the raw rows appended
    since (see :meth:`GuavaSource._read`).  ``apply``
    must build a new row each call and must not mutate its argument, a
    kept raw row.  The rows it builds are kept in turn and handed out
    shared, read-only by the contract of :meth:`GuavaSource.execute`.
    """

    key: str
    apply: Callable[[Row], Row]


class ChangeFeedState:
    """The change feed's durable core: entries, floor, accounted version.

    Split out of :class:`GuavaSource` so the storage layer can persist it
    (``to_doc``/``from_doc`` round-trip through snapshots) and replay
    logged ``note`` calls during recovery with *identical* semantics —
    including the pruning policy, which moves the enumeration floor and
    therefore changes which refreshes fall back to full rebuilds.
    """

    __slots__ = ("versions", "forms", "record_ids", "floor", "accounted")

    def __init__(self, accounted: int = 0):
        #: The entries, in three parallel sequences: the data version after
        #: each write, its form name and its record id.  Forms have
        #: independent record-id spaces, so entries carry both.
        self.versions = array("q")
        self.forms: list[str | None] = []
        self.record_ids = array("q")
        #: Versions at or below the floor cannot be enumerated (pruned log
        #: or an unattributed change).
        self.floor = 0
        self.accounted = accounted

    @property
    def log(self) -> list[tuple[int, str | None, int]]:
        """The entries as ``(version, form, record id)`` tuples (a copy)."""
        return list(zip(self.versions, self.forms, self.record_ids))

    def note(self, version: int, record_id: int | None, form: str | None) -> None:
        """Account one mutation at ``version`` (None record id = unknown)."""
        self.accounted = version
        if record_id is None or not _ID_MIN <= record_id <= _ID_MAX:
            # Unattributable change: everything before it is unenumerable.
            self.floor = version
            del self.versions[:], self.forms[:], self.record_ids[:]
            return
        self.versions.append(version)
        self.forms.append(form)
        self.record_ids.append(record_id)
        if len(self.versions) > CHANGE_LOG_LIMIT:
            half = len(self.versions) // 2
            self.floor = self.versions[half - 1]
            del self.versions[:half], self.forms[:half], self.record_ids[:half]

    def since(self, version: int) -> Iterable[tuple[str | None, int]]:
        """``(form, record id)`` of the entries after data ``version``.

        The log is appended in non-decreasing version order (pruning drops
        a prefix, recovery replays notes in log order), so the span is a
        suffix found by bisection.
        """
        start = bisect_right(self.versions, version)
        return zip(self.forms[start:], self.record_ids[start:])

    def to_doc(self) -> dict:
        return {
            "floor": self.floor,
            "accounted": self.accounted,
            # (version, form, record id) tuples encode as JSON arrays.
            "log": self.log,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ChangeFeedState":
        state = cls(int(doc.get("accounted", 0)))
        state.floor = int(doc.get("floor", 0))
        for version, form, rid in doc.get("log", []):
            state.versions.append(int(version))
            state.forms.append(form)
            state.record_ids.append(int(rid))
        return state


class GuavaSource:
    """One contributor data source, fully wired.

    >>> source = GuavaSource("clinic_a", tool, chain)
    >>> session = source.session()                  # clinicians enter data
    >>> rows = source.query("procedure").where("hypoxia = TRUE").run()
    """

    def __init__(
        self,
        name: str,
        tool: ReportingTool,
        chain: PatternChain,
        db: Database | None = None,
        clock: Clock | None = None,
    ):
        missing = [
            form for form in tool.form_names() if form not in chain.naive_schemas
        ]
        if missing:
            raise GuavaError(
                f"pattern chain does not cover form(s) {missing} of {tool.name}"
            )
        self.name = name
        self.tool = tool
        self.chain = chain
        self.db = db or Database(name)
        chain.deploy(self.db)
        #: The tables whose data versions make up :meth:`data_version`.
        self._chain_tables = tuple(chain.physical_schemas)
        self._plan_prefix = f"guava:{name}#{next(_SOURCE_SERIALS)}:"
        self.gtrees: dict[str, GTree] = derive_all(tool, clock=clock)
        #: The durable change-feed state; a DurableStore may swap in a
        #: recovered instance via :meth:`adopt_feed`.
        self.feed = ChangeFeedState(self.data_version())
        #: Durability hook: called as ``(version, record_id, form)`` after
        #: every feed note so the storage layer can mirror it into the WAL.
        self.on_feed_change: (
            "Callable[[int, int | None, str | None], None] | None"
        ) = None

    # -- data entry -------------------------------------------------------------

    def session(self, first_record_id: int = 1) -> DataEntrySession:
        """A data-entry session writing through the pattern chain.

        Writes are mirrored into the source's change feed so incremental
        consumers can enumerate exactly which records a refresh must touch.
        """
        writer = self.chain.writer(self.db)

        def tracked(form_name: str, naive_row: dict[str, object]) -> None:
            if self.data_version() != self.feed.accounted:
                # A write bypassed the feed since its last note; account
                # it as unknown before this note would hide it.
                self._note_change(None)
            writer(form_name, naive_row)
            self._note_change(naive_row.get(RECORD_ID), form_name)

        return DataEntrySession(
            self.tool, writer=tracked, first_record_id=first_record_id
        )

    # -- change tracking ---------------------------------------------------------

    def data_version(self) -> int:
        """The monotone data version of the tables the pattern chain owns.

        The sum of their per-table versions: it moves on every mutation of
        those tables and on nothing else, so a warehouse or another source
        writing into the same database leaves this source's feed accounted.
        """
        return self.db.tables_version(self._chain_tables)

    def track_change(
        self, record_id: int | None = None, form: str | None = None
    ) -> None:
        """Register an out-of-band mutation (call *after* mutating the db).

        ``record_id`` names the logical record whose physical rows changed
        (``form`` scopes it when the tool has several forms); ``None`` means
        "something changed but the record is unknown", which keeps the feed
        honest but forces the next incremental consumer into a full rebuild.

        The call accounts the current data version, so it vouches for every
        write since the last note: an unregistered direct write made before
        it is trusted away, and incremental refreshes and patched reads
        miss its record.  Register each direct write (a session entry, in
        contrast, first accounts an unregistered earlier write as unknown).
        """
        self._note_change(record_id, form)

    def changed_record_ids(self, since: int, form: str | None = None) -> set[int] | None:
        """Record ids changed after data version ``since``.

        ``form`` restricts the answer to one form's record-id space (entries
        logged without a form always match, conservatively).  Returns
        ``None`` when the span cannot be enumerated: untracked mutations
        happened (the data version drifted from the feed — which includes a
        feed recovered from a tree that versioned the whole database), or
        ``since`` predates the pruned log, or ``since`` comes from another
        lineage entirely.  Callers must treat ``None`` as "rebuild fully".
        """
        current = self.data_version()
        feed = self.feed
        if current != feed.accounted:
            return None  # mutations bypassed the feed
        if since > current or since < feed.floor:
            return None  # foreign or pruned lineage
        return {
            rid
            for logged_form, rid in feed.since(since)
            if form is None or logged_form is None or logged_form == form
        }

    def adopt_feed(self, state: ChangeFeedState) -> None:
        """Share a (recovered) feed state object with the storage layer.

        After adoption the source and the DurableStore hold the *same*
        object, so checkpoints see every subsequent note without a copy.
        """
        self.feed = state

    def _note_change(self, record_id: object, form: str | None = None) -> None:
        version = self.data_version()
        rid = record_id if isinstance(record_id, int) else None
        self.feed.note(version, rid, form)
        hook = self.on_feed_change
        if hook is not None:
            hook(version, rid, form)

    # -- querying ----------------------------------------------------------------

    def gtree(self, form_name: str) -> GTree:
        """The g-tree of one form."""
        if form_name not in self.gtrees:
            raise GuavaError(f"source {self.name} has no form {form_name!r}")
        return self.gtrees[form_name]

    def query(self, form_name: str) -> "BoundQuery":
        """Start a query against one form's g-tree."""
        return BoundQuery(self, GTreeQuery(self.gtree(form_name)))

    def execute(
        self,
        query: GTreeQuery,
        record_ids: Iterable[int] | None = None,
        row_map: RowMap | None = None,
    ) -> list[Row]:
        """Translate and run a g-tree query against the physical database.

        ``record_ids`` restricts the result to those logical records — the
        re-extraction path incremental materialization uses for deltas.
        The restriction composes at the relational level (``record_id`` is
        the reserved key column every translation emits, not a g-tree node,
        so it cannot appear in the g-tree query itself).  When the shape's
        kept raw read is current, or a patch brings it forward, the
        records' rows are picked from it (see :meth:`_pick`).  Otherwise
        the optimizer pushes the membership test down to every base table
        with a ``record_id`` column (below computes, pivots, aggregates
        keyed on it, sorts, and into both sides of joins on it), and the
        first call builds the record-id indexes it needs, so a small delta
        reads only its records' rows.

        The plan is made once per query *shape*: the database's plan cache
        is keyed on this source, the form, a type-tagged fingerprint of the
        query's nodes and condition, and the scope (full read
        or record-scoped).  A hit skips translation and optimization
        entirely, for as long as the plan's assumptions hold (see
        :func:`~repro.relational.query.optimize`).  A record-scoped key
        leaves the ids out: the first call plans with its real ids, and
        later hits rebind the membership slots to theirs.

        A full read's *rows* are also kept, and brought forward by the
        records changed since (see :meth:`_read`).  A full read's rows are
        a multiset: their order is unspecified, and a patched read lists
        the changed records' rows after the kept ones.  Each shape has one
        kept raw read; ``row_map`` turns each record of it into the row
        returned for it, so a mapped read keeps the mapped rows, maps a
        record once per data version, and reads the chain tables only
        through the raw read.

        Returned rows are read-only by contract: the list is new on every
        call, but the rows in it are shared.  Every row a full read returns
        (a hit, delta or miss, raw or mapped) and every raw row a pick
        returns is a row object the memo keeps and hands to each later
        reader at that data version, so a hit copies no row.  A caller
        that needs a changed row builds a new dict (``{**row, ...}``) and
        never changes, adds or removes a key of a returned row.  Rows of a
        record-scoped plan, or mapped for a pick, are not kept, but come
        under the same contract.
        """
        shape = self._shape(query)
        if record_ids is None:
            return self._read(query, shape, row_map)
        ids = tuple(sorted(set(record_ids)))
        if shape is not None:
            picked = self._pick(query, shape, ids, row_map)
            if picked is not None:
                return picked
        key = None if shape is None else self._plan_prefix + "ids:" + shape
        plan = cached_plan(self.db, key) if key is not None else None
        if plan is not None:
            plan, _ = rebind_in_lists(plan, RECORD_ID, ids)
        else:
            translated = translate_query(query, self.chain)
            if key is not None and not _rebindable(translated):
                key = None
            # Record-scoped extraction is the hot delta path of incremental
            # materialization: build the record-id indexes the pushed-down
            # membership test needs, once.
            plan = prepare_stream_plan(
                Select(translated, _membership(ids)), self.db, cache_key=key
            )
        rows = plan.execute(self.db)
        return rows if row_map is None else list(map(row_map.apply, rows))

    def _read(
        self, query: GTreeQuery, shape: str | None, row_map: RowMap | None
    ) -> list[Row]:
        """A full read, through the database's result memo.

        A g-tree is a view: its rows are a function of the query's shape
        (the plan-cache key) and of the data they are read from.  The memo
        stamps them with the plan epoch, the chain tables' data versions
        and the restore generation (a restore can rewind a data version).
        The *raw* read is kept under the shape's plan-cache key: its first
        read keeps its own rows, so the second is a hit.  Kept rows
        at an older stamp are *patched* when only the data versions moved
        and the change feed vouches that no record the kept rows hold
        changed since (see :meth:`_patch`): a record-scoped read of the
        changed records is appended, so a live read costs what changed.  A query
        without a key (a g-tree this source did not derive) bypasses the
        memo.

        A ``row_map``'s rows are an *image* of the raw read, kept on its
        state (:class:`_KeptRead`) under the map's key, one mapped row per
        raw row, never read through a plan of their own: a mapped read
        brings the raw read to the current stamp (hit, patch or full read),
        then returns the image (a hit, when both were current), extends it
        by the raw rows past its length (a patch), or maps every raw row (a
        miss: no image, or a raw read read again in full, whose new state
        holds none).  So a kept mapped read is a hit that maps nothing, and
        N maps over one shape read each record from the chain tables once
        per data version.  A map that raises stores nothing; in a patch the
        records before the tail mapped without error, so it raises what a
        fresh read would.  Each outcome returns a new list of the kept row
        objects (the raw rows or the image), never copies of them.

        Under a tracer each read is a ``guava.read`` span, around the
        read's own spans (``optimize``, ``execute:*``) and the map's time,
        whose ``result_memo`` is ``hit``, ``delta`` (with
        ``delta_records``, the records changed since the kept read),
        ``miss``, ``bypass``, or ``error`` for a read that raised.  A mapped
        read adds ``mapped_records``, the number of records the map was
        applied to, and, unless it was a hit, ``raw_memo``: the raw read's
        outcome (``hit``, ``delta`` or ``miss``), which says whether the
        chain tables were read at all.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._memo_read(query, shape, row_map)[0]
        form = query.gtree.form_name
        with tracer.span("guava.read", source=self.name, form=form) as span:
            span.set("result_memo", "error")  # unless the read returns
            rows, attrs = self._memo_read(query, shape, row_map)
            span.attrs.update(attrs)
        return rows

    def _memo_read(
        self, query: GTreeQuery, shape: str | None, row_map: RowMap | None
    ) -> tuple[list[Row], dict[str, object]]:
        """:meth:`_read`'s rows and its span attributes."""
        attrs: dict[str, object]
        if shape is None:
            rows = self._run(query, None)[0]
            attrs = {"result_memo": "bypass"}
            if row_map is not None:
                rows = list(map(row_map.apply, rows))
                attrs["mapped_records"] = len(rows)
            return rows, attrs
        stamp = self._stamp()
        if row_map is not None:
            return self._mapped_read(query, shape, stamp, row_map)
        kept, _, outcome, delta_records = self._raw(query, shape, stamp)
        attrs = {"result_memo": outcome}
        if outcome == "delta":
            attrs["delta_records"] = delta_records
        return list(kept), attrs

    def _mapped_read(
        self, query: GTreeQuery, shape: str, stamp: tuple, row_map: RowMap
    ) -> tuple[list[Row], dict[str, object]]:
        """A full read's rows through ``row_map``, the map's image of the
        kept raw read (see :meth:`_read`), and its span attributes."""
        raw, state, raw_outcome, _ = self._raw(query, shape, stamp)
        maps = state.maps
        image = maps.get(row_map.key)
        if image is not None and image[0] == stamp:
            # A current image implies a current raw read: no raw_memo.
            return list(image[1]), {
                "result_memo": "hit",
                "mapped_records": 0,
            }
        attrs: dict[str, object]
        if image is None:
            mapped = list(map(row_map.apply, raw))
            attrs = {"result_memo": "miss", "mapped_records": len(mapped)}
        else:
            # The image maps the raw rows before its length, and a kept raw
            # read is only appended to, so the rest are the records since.
            _, mapped, changed = image
            tail = list(map(row_map.apply, raw[len(mapped) :]))
            mapped.extend(tail)
            attrs = {
                "result_memo": "delta",
                "delta_records": state.changed - changed,
                "mapped_records": len(tail),
            }
        if row_map.key not in maps and len(maps) >= self.db.PLAN_CACHE_LIMIT:
            maps.clear()
        maps[row_map.key] = (stamp, mapped, state.changed)
        attrs["raw_memo"] = raw_outcome
        return list(mapped), attrs

    def _stamp(self) -> tuple[object, ...]:
        """The result memo's validity stamp for this source's reads."""
        db = self.db
        return (
            db.plan_epoch,
            db.tables_versions(self._chain_tables),
            restore_generation(),
        )

    def _run(self, query: GTreeQuery, key: str | None) -> tuple[list[Row], "_KeptRead"]:
        """A full read, planned through the plan cache under ``key`` (None:
        planned fresh), and the patch state of its rows."""
        db = self.db
        plan = cached_plan(db, key) if key is not None else None
        if plan is None:
            # Passing the database unlocks index lowering and the plan cache.
            plan = optimize(translate_query(query, self.chain), db, cache_key=key)
        return plan.execute(db), _KeptRead(plan)

    def _raw(
        self, query: GTreeQuery, shape: str, stamp: tuple, full: bool = True
    ) -> tuple[list[Row], "_KeptRead", str, int] | None:
        """The shape's kept raw read brought to ``stamp``: its rows (the
        memo's own, read-only), its state, the outcome (``hit``, ``delta``
        or ``miss``), and the records a patch brought in.

        The raw read is the memo entry under the shape's full-read key.
        With ``full`` False a kept read that is neither current nor
        patchable is left as it is and None returned: the caller reads
        otherwise.  A full read keeps its own rows and a new state, so the
        maps' images of the read it replaces go with it.
        """
        db = self.db
        memo = db._result_memo
        key = self._plan_prefix + "all:" + shape
        entry = memo.get(key)
        if entry is not None:
            kept_stamp, kept, state = entry
            if kept_stamp == stamp:
                return kept, state, "hit", 0
            delta_records = self._patch(query, shape, kept_stamp, stamp, kept, state)
            if delta_records is not None:
                memo[key] = (stamp, kept, state)
                return kept, state, "delta", delta_records
        if not full:
            return None
        rows, state = self._run(query, key)
        if key not in memo and len(memo) >= db.PLAN_CACHE_LIMIT:
            memo.clear()
        memo[key] = (stamp, rows, state)
        return rows, state, "miss", 0

    def _pick(
        self,
        query: GTreeQuery,
        shape: str,
        ids: tuple[int, ...],
        row_map: RowMap | None,
    ) -> list[Row] | None:
        """A record-scoped read served from the shape's kept raw read.

        Only when that read is current or a patch brings it forward
        (:meth:`_raw` with ``full`` False): a correction of a kept record,
        or no kept read, returns None, and the caller reads the records
        through a plan of their own rather than the whole shape again; so
        does a read where some record has several rows.  The records' rows
        are found through the read's record-id index and returned in read
        order, mapped by ``row_map`` or as the kept rows themselves, shared
        and read-only (see :meth:`execute`).

        Under a tracer a served read is a ``guava.read`` span (any patch's
        own spans precede it) whose ``result_memo`` is the raw read's
        outcome, ``hit`` or ``delta`` (with ``delta_records``), and whose
        ``picked_records`` counts the requested records found; a mapped
        one adds ``mapped_records``.
        """
        raw = self._raw(query, shape, self._stamp(), full=False)
        if raw is None:
            return None
        kept, state, outcome, delta_records = raw
        positions = state.index(kept)
        if not state.single:
            return None
        found = sorted(positions[rid] for rid in ids if rid in positions)
        rows = [kept[position] for position in found]
        tracer = current_tracer()
        if tracer is None:
            return rows if row_map is None else list(map(row_map.apply, rows))
        form = query.gtree.form_name
        with tracer.span("guava.read", source=self.name, form=form) as span:
            span.set("result_memo", "error")  # unless the map returns
            if row_map is not None:
                rows = list(map(row_map.apply, rows))
            span.set("result_memo", outcome)
            if outcome == "delta":
                span.set("delta_records", delta_records)
            span.set("picked_records", len(found))
            if row_map is not None:
                span.set("mapped_records", len(rows))
        return rows

    def _patch(
        self,
        query: GTreeQuery,
        shape: str,
        kept_stamp: tuple[object, ...],
        stamp: tuple[object, ...],
        kept: list[Row],
        state: "_KeptRead",
    ) -> int | None:
        """Append to a raw read kept at ``kept_stamp`` the rows of the
        records changed since.

        Returns the number of records changed, or None, having changed
        nothing, and the caller reads in full, unless every condition
        holds:

        * only the chain tables' data versions moved (same plan epoch and
          restore generation);
        * the plan is record-local, each row derived from one record's
          rows (:func:`~repro.relational.query.record_local`), and the
          kept rows carry ``record_id``;
        * the change feed enumerates the records of this form changed
          since then (no untracked write, no pruned span);
        * none of them is in the kept rows (no update or delete of a read
          record);
        * the table at the end of the plan's left spine has a
          ``record_id`` index, so the scoped read scans no table a
          record-scoped read would not;
        * a record-scoped read of them succeeds.

        The kept rows are then exactly the unchanged records' rows, and the
        scoped read exactly the changed records' rows, so the patched rows
        equal a full read's as a multiset (row order is unspecified).
        Maps' images are extended from the raw rows this appends (see
        :meth:`_read`), so this runs once per shape and data version
        whatever the number of maps.  The scoped read reuses the refresh
        path's plan when cached, or plans with
        :func:`~repro.relational.query.optimize` under a key of its own: a
        read never builds an index (which would write the WAL and move the
        plan epoch) and never caches an index-less plan where the refresh
        path would reuse it.
        """
        epoch, versions, generation = kept_stamp
        if (epoch, generation) != (stamp[0], stamp[2]):
            return None
        if -1 in versions or not state.analyze(kept, self.db):
            return None
        changed = self.changed_record_ids(sum(versions), query.gtree.form_name)
        if changed is None or not changed.isdisjoint(state.index(kept)):
            return None
        if changed:
            if self.db.table(state.driver).matching_index((RECORD_ID,)) is None:
                return None
            try:
                scoped = self._scoped_rows(query, shape, tuple(sorted(changed)))
            except ReproError:
                return None
            if scoped is None:
                return None
            state.extend(scoped, len(kept))
            kept.extend(scoped)
        state.changed += len(changed)
        return len(changed)

    def _scoped_rows(
        self, query: GTreeQuery, shape: str, ids: tuple[int, ...]
    ) -> list[Row] | None:
        """A record-scoped read that builds no index; None when its plan
        could not be rebound to other ids."""
        db = self.db
        key = self._plan_prefix + "delta:" + shape
        plan = cached_plan(db, self._plan_prefix + "ids:" + shape)
        if plan is None:
            plan = cached_plan(db, key)
        if plan is None:
            translated = translate_query(query, self.chain)
            if not _rebindable(translated):
                return None
            plan = optimize(Select(translated, _membership(ids)), db, cache_key=key)
        else:
            plan, _ = rebind_in_lists(plan, RECORD_ID, ids)
        return plan.execute(db)

    def _shape(self, query: GTreeQuery) -> str | None:
        """The query's shape (:meth:`GTreeQuery.shape`), or None if it has
        none.

        Plan-cache keys are the source's prefix, a scope and the shape.  A
        query over a g-tree object this source did not derive could select
        different default nodes under the same form name, so it is planned
        fresh (through the structural cache) instead.
        """
        if self.gtrees.get(query.gtree.form_name) is not query.gtree:
            return None
        return query.shape()

    def __repr__(self) -> str:
        return f"GuavaSource({self.name!r}, tool={self.tool.name} v{self.tool.version})"


def _rebindable(translated: Plan) -> bool:
    """Can a record-scoped plan of ``translated`` be rebound to new ids?

    Only when the record-id membership is the plan's *only* record-id
    ``IN`` slot, so rebinding cannot touch the chain's own filters.
    """
    _, slots = rebind_in_lists(translated, RECORD_ID, ())
    return not slots


class _KeptRead:
    """The state of a kept raw read: its patch state (see
    :meth:`GuavaSource._patch`) and its maps' images.

    Made cheaply at every full read (it holds the plan); a patch keeps the
    object and appends to the rows, so one object stands for one full read
    and its patches.  The analysis a patch needs is done on the first
    patch and kept: the table at the end of the plan's left spine, when
    the plan is record-local.  The record-id index (record id -> the
    position of its row in the kept rows) is built on first use and
    extended by each patch; ``single`` says every record has one row, so
    the index finds all of them.  ``changed`` counts the records patched
    in.  ``maps`` holds each row map's image of the rows: map key ->
    (stamp, the map's rows of the first raw rows, ``changed`` then), the
    mapped rows aligned one to one with the raw rows they were mapped
    from.
    """

    __slots__ = ("plan", "driver", "positions", "single", "changed", "maps")

    def __init__(self, plan: Plan):
        self.plan: Plan | None = plan
        self.driver: str | None = None
        self.positions: dict[object, int] | None = None
        self.single = True
        self.changed = 0
        self.maps: dict[str, tuple[tuple, list[Row], int]] = {}

    def analyze(self, kept: list[Row], db: Database) -> bool:
        """Can these kept rows be patched at all?  (Analyzed once.)"""
        plan = self.plan
        if plan is not None:
            self.plan = None
            if all(RECORD_ID in row for row in kept[:1]):
                self.driver = record_local(plan, RECORD_ID, db)
        return self.driver is not None

    def index(self, kept: list[Row]) -> dict[object, int]:
        """Record id -> the position of its (last) row in ``kept``."""
        if self.positions is None:
            self.positions = {}
            self.extend(kept, 0)
        return self.positions

    def extend(self, rows: list[Row], start: int) -> None:
        """Index ``rows``, about to be kept from position ``start`` on."""
        positions = self.positions
        if positions is None:
            return  # built from the kept rows on first use
        indexed = len(positions)
        positions.update(
            zip(map(dict.get, rows, repeat(RECORD_ID)), count(start))
        )
        if len(positions) != indexed + len(rows):
            self.single = False  # a record id seen twice


def _membership(ids: tuple[int, ...]) -> InList:
    return InList(Identifier.of(RECORD_ID), tuple(Literal(rid) for rid in ids))


class BoundQuery:
    """A g-tree query bound to its source, with a fluent interface."""

    def __init__(self, source: GuavaSource, query: GTreeQuery):
        self._source = source
        self._query = query

    def select(self, *names: str) -> "BoundQuery":
        return BoundQuery(self._source, self._query.select(*names))

    def where(self, condition) -> "BoundQuery":
        return BoundQuery(self._source, self._query.where(condition))

    def run(self) -> list[Row]:
        return self._source.execute(self._query)

