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

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Callable, Iterable, cast

from repro.errors import GuavaError, ReproError
from repro.expr.compile import compile_predicate
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
    _fingerprint,
    cached_plan,
    extent_driver,
    optimize,
    prepare_stream_plan,
    rebind_in_lists,
)
from repro.relational.sql import to_sql
from repro.ui.form import RECORD_ID
from repro.ui.session import DataEntrySession
from repro.ui.toolkit import ReportingTool
from repro.util.clock import Clock

Row = dict[str, object]

#: Change-feed entries kept before the oldest half is pruned; pruned spans
#: can no longer be enumerated and force a full rebuild.
CHANGE_LOG_LIMIT = 100_000

#: The data version of a change-feed entry.
_VERSION = itemgetter(0)

#: Tags each source's plan-cache keys, so two sources sharing a database
#: (even under one name, with different chains) never share an entry.
_SOURCE_SERIALS = count(1)


@dataclass(frozen=True)
class RowMap:
    """A pure function from one raw g-tree record to one output row.

    ``key`` states the function's structure: two maps under one key must
    map every record alike.  A full read given a map keeps and hands out
    *mapped* rows: the memo keys them on the read's shape plus ``key``, and
    a patch maps only the records appended since (see
    :meth:`GuavaSource._read`).  ``apply`` must build a new row each call;
    rows that keep ``record_id`` can be patched, others are re-read in
    full whenever the data moves.
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

    __slots__ = ("log", "floor", "accounted")

    def __init__(self, accounted: int = 0):
        #: (data version after the write, form name, record id) entries.
        #: Forms have independent record-id spaces, so entries carry both.
        self.log: list[tuple[int, str | None, int]] = []
        #: Versions at or below the floor cannot be enumerated (pruned log
        #: or an unattributed change).
        self.floor = 0
        self.accounted = accounted

    def note(self, version: int, record_id: int | None, form: str | None) -> None:
        """Account one mutation at ``version`` (None record id = unknown)."""
        self.accounted = version
        if record_id is None:
            # Unattributable change: everything before it is unenumerable.
            self.floor = version
            self.log.clear()
            return
        self.log.append((version, form, record_id))
        if len(self.log) > CHANGE_LOG_LIMIT:
            half = len(self.log) // 2
            self.floor = self.log[half - 1][0]
            del self.log[:half]

    def to_doc(self) -> dict:
        return {
            "floor": self.floor,
            "accounted": self.accounted,
            "log": [[version, form, rid] for version, form, rid in self.log],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ChangeFeedState":
        state = cls(int(doc.get("accounted", 0)))
        state.floor = int(doc.get("floor", 0))
        state.log = [
            (int(version), form, int(rid))
            for version, form, rid in doc.get("log", [])
        ]
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
        # The log is appended in non-decreasing version order (pruning
        # drops a prefix, recovery replays notes in log order), so the
        # span after ``since`` is a suffix found by bisection.
        log = feed.log
        start = bisect_right(log, since, key=_VERSION)
        return {
            rid
            for _, logged_form, rid in log[start:]
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
        so it cannot appear in the g-tree query itself).  The optimizer
        pushes the membership test down to every base table with a
        ``record_id`` column (below computes, pivots, aggregates keyed on
        it, sorts, and into both sides of joins on it), and the first call
        builds the record-id indexes it needs, so a small delta reads only
        its records' rows.

        The plan is made once per query *shape*: the database's plan cache
        is keyed on this source, the form, a type-tagged fingerprint of the
        query's nodes, condition and derivations, and the scope (full read
        or record-scoped).  A hit skips translation and optimization
        entirely, for as long as the plan's assumptions hold (see
        :func:`~repro.relational.query.optimize`).  A record-scoped key
        leaves the ids out: the first call plans with its real ids, and
        later hits rebind the membership slots to theirs.

        A full read's *rows* are also kept, and brought forward by the
        records appended since (see :meth:`_read`).  ``row_map`` turns each
        record into the row returned for it, inside the read, so a full
        read keeps the mapped rows and maps a record once per data version.
        Every returned row is the caller's own to mutate.
        """
        shape = self._shape(query)
        if record_ids is None:
            return self._read(query, shape, row_map)
        ids = tuple(sorted(set(record_ids)))
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
        A key's first read keeps a copy of its rows, so the second is a
        hit.  Kept rows at an older stamp are *patched* when only the data
        versions moved and the change feed vouches that the change is
        records appended since (see :meth:`_patch`): a record-scoped read
        of just those records is appended, so a live read costs what
        changed.  A query without a key (a g-tree this source did not
        derive) bypasses the memo.

        A ``row_map`` is applied inside the read, to every record a full
        read returns and to a patch's appended records only.  Its key joins
        the memo key (the plan is still shared with unmapped reads), so
        kept rows are mapped rows and a hit maps nothing.  A map that
        raises stores nothing; in a patch it falls back to the full read,
        which raises as a fresh read would.

        Under a tracer each read is a ``guava.read`` span, around the
        read's own spans (``optimize``, ``execute:*``) and the map's time,
        whose ``result_memo`` is ``hit``, ``delta`` (with
        ``delta_records``), ``miss``, ``bypass``, or ``error``
        for a read that raised; a mapped read adds ``mapped_records``, the
        number of records the map was applied to.
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
        db = self.db
        plan_key = None if shape is None else self._plan_prefix + "all:" + shape
        key = plan_key
        if plan_key is not None and row_map is not None:
            key = plan_key + "|map:" + row_map.key
        mapped_records = 0

        def run() -> tuple[list[Row], object]:
            nonlocal mapped_records
            plan = cached_plan(db, plan_key) if plan_key is not None else None
            if plan is None:
                # Passing the database unlocks index lowering and the
                # plan cache.
                plan = optimize(
                    translate_query(query, self.chain), db, cache_key=plan_key
                )
            rows = plan.execute(db)
            if row_map is not None:
                rows = list(map(row_map.apply, rows))
                mapped_records += len(rows)
            return rows, _KeptRead(plan, self._lengths())

        delta_records = 0
        if key is None:
            rows, outcome = run()[0], "bypass"
        else:
            stamp = (
                db.plan_epoch,
                db.tables_versions(self._chain_tables),
                restore_generation(),
            )

            def patch(
                kept_stamp: object, kept: list[Row], state: object
            ) -> list[Row] | None:
                nonlocal delta_records, mapped_records
                patched = self._patch(
                    query,
                    cast(str, shape),
                    kept_stamp,
                    stamp,
                    kept,
                    cast(_KeptRead, state),
                    row_map,
                )
                if patched is None:
                    return None
                appended, delta_records = patched
                if row_map is not None:
                    mapped_records += len(appended)
                return appended

            rows, outcome = db.memo_read(key, stamp, run, patch)
        attrs: dict[str, object] = {"result_memo": outcome}
        if outcome == "delta":
            attrs["delta_records"] = delta_records
        if row_map is not None:
            attrs["mapped_records"] = mapped_records
        return rows, attrs

    def _patch(
        self,
        query: GTreeQuery,
        shape: str,
        kept_stamp: object,
        stamp: tuple[object, ...],
        kept: list[Row],
        state: "_KeptRead",
        row_map: RowMap | None,
    ) -> tuple[list[Row], int] | None:
        """The rows to append to a full read kept at ``kept_stamp``.

        Returns them with the number of records changed, or None, and the
        caller reads in full, unless every condition holds:

        * only the chain tables' data versions moved (same plan epoch and
          restore generation);
        * the kept rows follow one driving table's extent record by record
          (:func:`~repro.relational.query.extent_driver`);
        * the change feed enumerates the records of this form changed
          since then (no untracked write, no pruned span);
        * none of them is in the kept rows (no update or delete of a read
          record), and none has a row that passes the driving table's leaf
          filter below that table's row count at the kept read (so each
          is new to the read and its rows follow every kept row);
        * the driving table has a ``record_id`` index to find them by;
        * a record-scoped read of them succeeds, and so does ``row_map``
          on each of its rows.

        The scoped read reuses the refresh path's plan when cached, or
        plans with :func:`~repro.relational.query.optimize` under a key of
        its own: a read never builds an index (which would write the WAL
        and move the plan epoch) and never caches an index-less plan where
        the refresh path would reuse it.
        """
        epoch, versions, generation = cast(tuple, kept_stamp)
        if (epoch, generation) != (stamp[0], stamp[2]):
            return None
        if -1 in versions or not state.analyze(kept, self.db):
            return None
        changed = self.changed_record_ids(sum(versions), query.gtree.form_name)
        if changed is None or not changed.isdisjoint(state.ids):
            return None
        table = self.db.table(state.driver)
        rows: list[Row] = []
        if changed:
            index = table.matching_index((RECORD_ID,))
            if index is None:
                return None
            length = state.lengths[state.driver]
            old = [
                position
                for rid in changed
                for position in index.lookup((rid,))
                if position < length
            ]
            keep = state.keep
            try:
                if old and (keep is None or any(map(keep, table.rows_at(old)))):
                    return None
                scoped = self._scoped_rows(
                    query, shape, tuple(sorted(changed)), row_map
                )
            except ReproError:
                return None
            if scoped is None:
                return None
            rows = scoped
            state.ids.update(row.get(RECORD_ID) for row in rows)
        state.lengths = self._lengths()
        return rows, len(changed)

    def _lengths(self) -> dict[str, int]:
        """Each chain table's row count."""
        db = self.db
        return {
            name: len(db.table(name))
            for name in self._chain_tables
            if db.has_table(name)
        }

    def _scoped_rows(
        self,
        query: GTreeQuery,
        shape: str,
        ids: tuple[int, ...],
        row_map: RowMap | None,
    ) -> list[Row] | None:
        """A record-scoped read that builds no index (its rows mapped by
        ``row_map``, or copied); None when its plan could not be rebound
        to other ids."""
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
        apply = dict if row_map is None else row_map.apply
        return list(map(apply, plan.execute(db)))

    def _shape(self, query: GTreeQuery) -> str | None:
        """The query's shape — form plus a type-tagged fingerprint of its
        nodes, condition and derivations — or None if it has none.

        Plan-cache keys are the source's prefix, a scope and the shape.  A
        query over a g-tree object this source did not derive could select
        different default nodes under the same form name, so it is planned
        fresh (through the structural cache) instead.
        """
        form = query.gtree.form_name
        if self.gtrees.get(form) is not query.gtree:
            return None
        parts = [form, ":"]
        _fingerprint((query.nodes, query.condition, query.derivations), parts.append)
        return "".join(parts)

    def explain(self, query: GTreeQuery) -> str:
        """The SQL the translated query corresponds to (documentation)."""
        return to_sql(translate_query(query, self.chain))

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
    """Patch state of a kept full read (see :meth:`GuavaSource._patch`).

    Made cheaply at every full read (the plan and the chain tables' row
    counts); the analysis a patch needs is done on the first patch and
    kept: the driving table, its compiled leaf filter and the record ids
    the kept rows hold.
    """

    __slots__ = ("plan", "lengths", "driver", "keep", "ids")

    def __init__(self, plan: Plan, lengths: dict[str, int]):
        self.plan: Plan | None = plan
        self.lengths = lengths
        self.driver: str | None = None
        self.keep: Callable[[Row], bool] | None = None
        self.ids: set[object] = set()

    def analyze(self, kept: list[Row], db: Database) -> bool:
        """Can these kept rows be patched at all?  (Analyzed once.)"""
        plan = self.plan
        if plan is not None:
            self.plan = None
            driver = extent_driver(plan, RECORD_ID, db)
            if driver is not None and all(RECORD_ID in row for row in kept[:1]):
                self.driver, leaf_filter = driver
                if leaf_filter is not None:
                    self.keep = compile_predicate(leaf_filter)
                self.ids = {row.get(RECORD_ID) for row in kept}
        return self.driver is not None and self.driver in self.lengths


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

    def derive(self, name: str, expression) -> "BoundQuery":
        return BoundQuery(self._source, self._query.derive(name, expression))

    @property
    def query(self) -> GTreeQuery:
        return self._query

    def run(self) -> list[Row]:
        return self._source.execute(self._query)

    def sql(self) -> str:
        return self._source.explain(self._query)
