"""Row storage with schema enforcement, primary keys, and indexes."""

from __future__ import annotations

from itertools import chain
from math import isfinite
from types import NoneType
from typing import Callable, Container, Iterable, Iterator, Mapping

from repro.errors import IntegrityError, SchemaError
from repro.relational.index import HashIndex
from repro.relational.schema import TableSchema
from repro.relational.types import Converter, unchanged_by_coerce

Row = dict[str, object]

#: A batch :meth:`Table.check_batch` accepted: (the table's version when
#: checked, the rows to store, their primary keys).
CheckedBatch = tuple[int, list[Row], list[tuple[object, ...]]]

#: Callbacks fired whenever a table's extent or counters are *restored*
#: (snapshot load, WAL replay) rather than mutated through the normal
#: paths.  Restore can rewind or arbitrarily set the data version, so any
#: cache keyed on a version outside the table itself — the result memo's
#: stamps — must learn of it; modules register a ``callback(table)`` here
#: to be told.
_RESTORE_LISTENERS: list[Callable[["Table"], None]] = []


def register_restore_listener(callback: Callable[["Table"], None]) -> None:
    """Register a callback invoked with a table after any restore."""
    _RESTORE_LISTENERS.append(callback)


class Table:
    """One relation: a schema plus its extent.

    Inserts coerce values through column types, reject unknown columns,
    fill missing columns with ``None``, and enforce NOT NULL and primary-key
    uniqueness.  Rows handed out by :meth:`rows` are copies; the extent can
    only change through the table's own methods, which keep indexes fresh.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: list[Row] = []
        self._indexes: dict[tuple[str, ...], HashIndex] = {}
        self._pk_index: HashIndex | None = None
        self._version = 0
        self._index_epoch = 0
        # Mutation listener: the durability layer's redo-log hook.  Called
        # once per successful mutating call with (op, payload) *after* the
        # mutation is applied; None (the default) costs one check per call.
        self._listener: Callable[[str, dict[str, object]], None] | None = None
        if schema.primary_key:
            self._pk_index = HashIndex(schema.primary_key)

    # -- change notification --------------------------------------------------

    def set_mutation_listener(
        self, listener: Callable[[str, dict[str, object]], None] | None
    ) -> None:
        """Install (or clear) the single mutation listener.

        The durability layer uses this to mirror every successful mutation
        into its write-ahead log; payloads are position/value based so a
        replay reproduces the extent, the insertion order, and the data
        version exactly without re-running predicates.
        """
        self._listener = listener

    def _notify(self, op: str, payload: dict[str, object]) -> None:
        listener = self._listener
        if listener is not None:
            listener(op, payload)

    # -- reading -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def version(self) -> int:
        """Monotone data version: bumps on every mutating call.

        Snapshots persist it and incremental materialization keys refresh
        decisions on it, so two extents with equal rows but different
        histories stay distinguishable.
        """
        return self._version

    @property
    def index_epoch(self) -> int:
        """Monotone index-structure version: bumps when an index is actually
        created or dropped.  ``create_index`` returning an existing index does
        NOT bump it — ``prepare_stream_plan`` re-requests indexes on every
        call, and those no-ops must not churn the plan cache."""
        return self._index_epoch

    def rows(self) -> list[Row]:
        """A defensive copy of the extent, in insertion order."""
        return [dict(row) for row in self._rows]

    def iter_rows(self) -> Iterator[Row]:
        """Iterate the extent without copying.

        The streaming executor's ``Scan`` uses this; yielded dicts are the
        table's own storage, so callers must treat them as read-only.
        """
        return iter(self._rows)

    def rows_at(self, positions: Iterable[int]) -> Iterator[Row]:
        """Rows at index positions, uncopied (read-only, like iter_rows)."""
        rows = self._rows
        return (rows[position] for position in positions)

    def secondary_index_columns(self) -> list[tuple[str, ...]]:
        """Column tuples of every secondary index, in creation order.

        Snapshots persist indexes as this metadata only — the hash buckets
        themselves rebuild on load, which is both smaller on disk and the
        only correct option for anything keyed on ``hash()`` (per-process
        string-hash randomization makes persisted buckets meaningless).
        """
        return list(self._indexes)

    def matching_index(self, columns: Iterable[str]) -> HashIndex | None:
        """The widest index whose columns all appear in ``columns``."""
        available = set(columns)
        best: HashIndex | None = None
        if self._pk_index is not None and set(self._pk_index.columns) <= available:
            best = self._pk_index
        for index in self._indexes.values():
            if set(index.columns) <= available:
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        return best

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def find(self, predicate: Callable[[Row], bool]) -> list[Row]:
        """Rows satisfying a Python predicate (copies)."""
        return [dict(row) for row in self._rows if predicate(row)]

    def lookup(self, columns: tuple[str, ...], key: tuple[object, ...]) -> list[Row]:
        """Equality lookup, via an index when one exists on ``columns``."""
        index = self._indexes.get(columns)
        if index is None and self._pk_index is not None and columns == self.schema.primary_key:
            index = self._pk_index
        if index is not None:
            return [dict(self._rows[pos]) for pos in index.lookup(key)]
        return self.find(
            lambda row: tuple(row.get(column) for column in columns) == key
        )

    # -- writing -------------------------------------------------------------

    def insert(self, values: Mapping[str, object]) -> Row:
        """Validate, coerce, store, and return the new row (as a copy)."""
        row = self._validate(values)
        pk_index = self._pk_index
        if pk_index is not None:
            self._check_key(pk_index.key_of(row), ())
        position = len(self._rows)
        self._rows.append(row)
        self._version += 1
        if pk_index is not None:
            pk_index.add(row, position)
        for index in self._indexes.values():
            index.add(row, position)
        self._notify("insert", {"row": row})
        return dict(row)

    def check_batch(self, rows: Iterable[Mapping[str, object]]) -> CheckedBatch:
        """Check a batch of rows as :meth:`insert` checks each; change nothing.

        Rows are checked in order, each one's key against the extent and
        the rows before it, so the first failing row raises the error the
        :meth:`insert` loop would raise there.  The result is what
        :meth:`append_checked` stores, as long as the table has not
        changed since.  This is the form for small batches (one saved
        screen's rows); :meth:`insert_many` checks large ones column by
        column.
        """
        validate = self._validate
        pk_index = self._pk_index
        stored: list[Row] = []
        # Insertion-ordered: the keys of ``stored``, since a repeat raises.
        keys: dict[tuple[object, ...], None] = {}
        for values in rows:
            row = validate(values)
            if pk_index is not None:
                key = pk_index.key_of(row)
                self._check_key(key, keys)
                keys[key] = None
            stored.append(row)
        return self._version, stored, list(keys)

    def append_checked(self, batch: CheckedBatch) -> int:
        """Store a batch from :meth:`check_batch`; returns the rows stored.

        Stores what :meth:`insert` on each row would (rows, one version
        bump per row, index entries) with no second check, and tells the
        mutation listener once: ``("insert_many", {"rows": rows})``.  A
        batch checked before the table last changed raises
        :class:`IntegrityError` and stores nothing.
        """
        version, stored, keys = batch
        if version != self._version:
            raise IntegrityError(
                f"{self.name}: the batch was checked at version {version}, "
                f"the table is at {self._version}"
            )
        if stored:
            self._append(stored, keys)
        return len(stored)

    def insert_many(self, rows: Iterable[Mapping[str, object]]) -> int:
        """Insert several rows; returns the count inserted.

        The result is that of :meth:`insert` on each row in order: the same
        stored rows, version and index entries; the listener hears one
        ``("insert_many", {"rows": rows})`` call for a checked batch, the
        row loop's ``insert`` calls otherwise.  The work is column by
        column: the batch's keys and values are read into one flat list
        each, every check runs over the whole batch first, and only a
        batch that passes them all changes the table.  Any failed check
        sends the batch to the row-at-a-time loop, which raises the same
        error after inserting the same prefix as calling :meth:`insert`
        per row would.  ``rows`` is read to the end before the first
        insert; if reading it raises, the rows read so far go through the
        loop and the error propagates.  A listener that raises sees every
        row of a checked batch already stored.
        """
        batch: list[Mapping[str, object]] = []
        try:
            batch.extend(rows)
        except BaseException:
            self._insert_each(batch)
            raise
        if not batch:
            return 0
        checked = None
        try:
            checked = self._checked(batch)
        except Exception:
            # Nothing has changed yet: the loop raises what it raises.
            pass
        if checked is None:
            return self._insert_each(batch)
        self._append(*checked)
        return len(batch)

    def _append(self, stored: list[Row], keys: list[tuple[object, ...]]) -> None:
        start = len(self._rows)
        self._rows.extend(stored)
        self._version += len(stored)
        if self._pk_index is not None:
            self._pk_index.add_keys(keys, start)
        for index in self._indexes.values():
            index.add_keys(index.keys_of(stored), start)
        self._notify("insert_many", {"rows": stored})

    def _insert_each(self, rows: list[Mapping[str, object]]) -> int:
        for values in rows:
            self.insert(values)
        return len(rows)

    def _checked(
        self, batch: list[Mapping[str, object]]
    ) -> tuple[list[Row], list[tuple[object, ...]]] | None:
        """The batch's coerced rows and primary keys; None if a row fails.

        The column-wise form of :meth:`check_batch`, in two flat passes.
        The first lists the batch's keys end to end.  When that list is the
        schema's column names once per row, every row holds exactly the
        schema's columns in schema order (a row's keys are distinct, so no
        row can span more than one run of the names), and each row is
        copied as it is; otherwise each row is projected onto the schema,
        NULL for a missing column, unless some key is not a column.  The
        second lists the stored rows' values end to end, so column ``i`` is
        the slice ``values[i::width]``.  A column whose values are all NULL
        or of its type's native class (finite, for FLOAT) needs no
        coercion.  It may also raise (a value that does not coerce).  It
        never changes the table or the caller's rows.
        """
        schema = self.schema
        names = schema.column_names
        width = len(names)
        row_keys = list(chain.from_iterable(batch))
        count = len(batch)
        if len(row_keys) == width * count and row_keys == list(names) * count:
            stored = list(map(dict, batch))
        elif schema.column_set.issuperset(row_keys):
            stored = [{name: row.get(name) for name in names} for row in batch]
        else:
            return None
        values = list(chain.from_iterable(map(dict.values, stored)))
        for offset, column in enumerate(schema.columns):
            column_values = values[offset::width]
            kinds = set(map(type, column_values))
            if unchanged_by_coerce(column_values, column.dtype.native, kinds):
                if not column.nullable and NoneType in kinds:
                    return None
                continue
            coerced = Converter(column.dtype).column(column_values)
            name = column.name
            for row, value in zip(stored, coerced):
                row[name] = value
            if not column.nullable and None in coerced:
                return None
        keys: list[tuple[object, ...]] = []
        pk_index = self._pk_index
        if pk_index is not None:
            keys = pk_index.keys_of(stored)
            if (
                None in chain.from_iterable(keys)
                or len(set(keys)) != len(keys)
                or pk_index.holds_any(keys)
            ):
                return None
        return stored, keys

    def update(
        self,
        predicate: Callable[[Row], bool],
        changes: Mapping[str, object],
    ) -> int:
        """Apply ``changes`` to rows matching ``predicate``; returns count.

        All or nothing: the rows are matched, then the changes coerced and
        checked as :meth:`insert` checks a row (NOT NULL, and the primary
        key against the rows left as they are and the rows changed), all
        before any row changes, so a predicate, coercion or check that
        raises leaves the table, its version and the listener untouched.
        The change is then :meth:`apply_update_at` over the matched
        positions.
        """
        positions = [
            position for position, row in enumerate(self._rows) if predicate(row)
        ]
        coerced = self._coerced_changes(changes)
        for name, value in coerced.items():
            if value is None and not self.schema.column(name).nullable:
                raise IntegrityError(f"{self.name}.{name} is NOT NULL but got NULL")
        pk_index = self._pk_index
        if pk_index is not None and not coerced.keys().isdisjoint(pk_index.columns):
            rows = self._rows
            changed = set(positions)
            pending: dict[tuple[object, ...], None] = {}
            for position in positions:
                key = pk_index.key_of({**rows[position], **coerced})
                if None in key:
                    raise IntegrityError(
                        f"{self.name}: primary key columns "
                        f"{self.schema.primary_key} must not be NULL"
                    )
                if key in pending or not changed.issuperset(pk_index.lookup(key)):
                    raise IntegrityError(f"{self.name}: duplicate primary key {key}")
                pending[key] = None
        return self.apply_update_at(positions, changes)

    def apply_update_at(
        self, positions: Iterable[int], changes: Mapping[str, object]
    ) -> int:
        """Apply ``changes`` to the rows at ``positions`` (the redo path).

        Position-based replay of an :meth:`update`, with no checks beyond
        coercion: identical coercion, identical single version bump,
        identical index rebuild — so replaying a logged update reproduces
        the original bit for bit without re-evaluating its
        (unserializable) predicate.
        """
        coerced = self._coerced_changes(changes)
        rows = self._rows
        position_list = list(positions)
        for position in position_list:
            rows[position].update(coerced)
        if position_list:
            self._version += 1
            self._rebuild_indexes()
            self._notify(
                "update", {"positions": position_list, "changes": dict(changes)}
            )
        return len(position_list)

    def delete(self, predicate: Callable[[Row], bool]) -> int:
        """Remove rows matching ``predicate``; returns count removed."""
        return self.delete_at(
            [position for position, row in enumerate(self._rows) if predicate(row)]
        )

    def delete_at(self, positions: Iterable[int]) -> int:
        """Remove the rows at ``positions`` (the redo path of a delete)."""
        doomed = set(positions)
        if not doomed:
            return 0
        position_list = sorted(doomed)
        self._rows = [
            row for position, row in enumerate(self._rows) if position not in doomed
        ]
        self._version += 1
        self._rebuild_indexes()
        self._notify("delete", {"positions": position_list})
        return len(position_list)

    def create_index(self, columns: tuple[str, ...] | list[str]) -> HashIndex:
        """Add (or return an existing) equality index on ``columns``."""
        key = tuple(columns)
        for column in key:
            if not self.schema.has_column(column):
                raise SchemaError(f"table {self.name} has no column {column!r}")
        if key in self._indexes:
            return self._indexes[key]
        index = HashIndex(key)
        index.rebuild(self._rows)
        self._indexes[key] = index
        self._index_epoch += 1
        self._notify("create_index", {"columns": list(key)})
        return index

    def drop_index(self, columns: tuple[str, ...] | list[str]) -> bool:
        """Remove the equality index on ``columns``; True if one existed.

        The primary-key index is structural and cannot be dropped.
        """
        key = tuple(columns)
        if key not in self._indexes:
            return False
        del self._indexes[key]
        self._index_epoch += 1
        self._notify("drop_index", {"columns": list(key)})
        return True

    # -- restore (snapshot load / WAL replay only) ----------------------------

    def restore_extent(self, rows: list[Row]) -> None:
        """Replace the whole extent with pre-validated ``rows`` (restore only).

        Rows are adopted as storage (no copies, no re-validation — they came
        from this table's own snapshot), indexes are rebuilt, and the
        registered restore listeners are told.  Counters are NOT touched —
        pair with :meth:`restore_counters`.
        """
        self._rows = rows
        self._rebuild_indexes()
        for callback in _RESTORE_LISTENERS:
            callback(self)

    def restore_counters(self, version: int, index_epoch: int | None = None) -> None:
        """Set the monotone counters to exact recovered values (restore only).

        This CAN rewind — recovery needs the recovered table's counters
        bit-identical to the crashed process's, not merely fresh.  Because
        an arbitrary version assignment breaks the "version equality
        implies content equality" contract a version-keyed cache relies
        on, the registered restore listeners are told (the result memo's
        restore generation).
        """
        self._version = version
        if index_epoch is not None:
            self._index_epoch = index_epoch
        for callback in _RESTORE_LISTENERS:
            callback(self)

    # -- internals -------------------------------------------------------------

    def _coerced_changes(self, changes: Mapping[str, object]) -> Row:
        """``changes`` coerced through their columns' types."""
        schema = self.schema
        for column in changes:
            if not schema.has_column(column):
                raise SchemaError(f"table {self.name} has no column {column!r}")
        return {
            column: schema.column(column).dtype.coerce(value)
            for column, value in changes.items()
        }

    def _validate(self, values: Mapping[str, object]) -> Row:
        if not self.schema.column_set.issuperset(values):
            unknown = set(values) - self.schema.column_set
            raise SchemaError(
                f"table {self.name} has no column(s) {sorted(unknown)}"
            )
        row: Row = {}
        get = values.get
        for name, native, coerce, nullable in self.schema.checks:
            value = get(name)
            if type(value) is not native or (
                native is float and not isfinite(value)  # type: ignore[arg-type]
            ):
                if value is not None:
                    value = coerce(value)
                elif not nullable:
                    raise IntegrityError(
                        f"{self.name}.{name} is NOT NULL but got NULL"
                    )
            row[name] = value
        return row

    def _check_key(
        self, key: tuple[object, ...], pending: Container[tuple[object, ...]]
    ) -> None:
        """Raise unless ``key`` may be stored beside the extent and ``pending``."""
        if None in key:
            raise IntegrityError(
                f"{self.name}: primary key columns {self.schema.primary_key} must not be NULL"
            )
        if key in pending or self._pk_index.count(key):  # type: ignore[union-attr]
            raise IntegrityError(f"{self.name}: duplicate primary key {key}")

    def _rebuild_indexes(self) -> None:
        if self._pk_index is not None:
            self._pk_index.rebuild(self._rows)
        for index in self._indexes.values():
            index.rebuild(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.schema.name}, {len(self)} rows)"
