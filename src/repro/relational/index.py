"""Hash indexes over table columns."""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from typing import Hashable, Iterable, Mapping, Sequence

#: A row as an index reads it: its values subscripted by slot.
Row = Sequence[object] | Mapping[str, object]

#: A table's columns as an index reads them: each column's values,
#: subscripted by slot.
Columns = Sequence[Sequence[object]] | Mapping[str, Sequence[object]]


class HashIndex:
    """Equality index on one or more columns.

    Values are row positions within the owning table's columns, each
    bucket in ascending position order; the table keeps indexes
    synchronized on insert/update/delete.  ``slots`` says where each
    column sits among the columns and in a row's values: a table passes
    the columns' schema positions, and the default (the column names)
    reads mappings keyed by column name.
    """

    def __init__(
        self, columns: tuple[str, ...], slots: tuple[Hashable, ...] | None = None
    ):
        if not columns:
            raise ValueError("index requires at least one column")
        self.columns = columns
        self.slots = columns if slots is None else slots
        self._buckets: dict[tuple[object, ...], list[int]] = defaultdict(list)

    def key_of(self, row: Row) -> tuple[object, ...]:
        """The index key tuple for ``row``."""
        return tuple(row[slot] for slot in self.slots)  # type: ignore[index]

    def key_at(self, columns: Columns, position: int) -> tuple[object, ...]:
        """The index key tuple of the row at ``position`` of ``columns``."""
        slots = self.slots
        return tuple(columns[slot][position] for slot in slots)  # type: ignore[index]

    def keys_of(self, columns: Columns) -> list[tuple[object, ...]]:
        """:meth:`key_at` for each position of ``columns``, in order."""
        return list(zip(*(columns[slot] for slot in self.slots)))  # type: ignore[index]

    def add(self, row: Row, position: int) -> None:
        self._buckets[self.key_of(row)].append(position)

    def add_keys(self, keys: Iterable[tuple[object, ...]], start: int) -> None:
        """Add rows with ``keys`` at consecutive positions from ``start``."""
        buckets = self._buckets
        for position, key in enumerate(keys, start):
            buckets[key].append(position)

    def holds_any(self, keys: Iterable[tuple[object, ...]]) -> bool:
        """True when some row already has one of ``keys``."""
        return not self._buckets.keys().isdisjoint(keys)

    def lookup(self, key: tuple[object, ...]) -> list[int]:
        """Positions of rows whose indexed columns equal ``key``, ascending."""
        return list(self._buckets.get(key, ()))

    def count(self, key: tuple[object, ...]) -> int:
        """Size of ``key``'s bucket, without copying it."""
        return len(self._buckets.get(key, ()))

    def rebuild(
        self, columns: Columns, replaced: Mapping[int, Row] | None = None
    ) -> None:
        """Re-key the index from ``columns``.

        Without ``replaced`` every bucket is recomputed (after a delete
        shifts positions).  With it — position → the row that stood there
        before — only those positions can have changed key: each one whose
        key did moves from its old bucket to its place in the new one, and
        a bucket left empty goes, so :meth:`holds_any` sees only live keys.
        """
        buckets = self._buckets
        if replaced is None:
            buckets.clear()
            self.add_keys(self.keys_of(columns), 0)
            return
        key_of, key_at = self.key_of, self.key_at
        for position, before in replaced.items():
            old, new = key_of(before), key_at(columns, position)
            if old == new:
                continue
            bucket = buckets[old]
            del bucket[bisect_left(bucket, position)]
            if not bucket:
                del buckets[old]
            insort(buckets[new], position)
