"""Hash indexes over table columns."""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

Row = Mapping[str, object]


class HashIndex:
    """Equality index on one or more columns.

    Values are row positions within the owning table's row list; the table
    keeps indexes synchronized on insert/delete.
    """

    def __init__(self, columns: tuple[str, ...]):
        if not columns:
            raise ValueError("index requires at least one column")
        self.columns = columns
        self._buckets: dict[tuple[object, ...], list[int]] = defaultdict(list)

    def key_of(self, row: Row) -> tuple[object, ...]:
        """The index key tuple for ``row``."""
        return tuple(row.get(column) for column in self.columns)

    def keys_of(self, rows: Sequence[Row]) -> list[tuple[object, ...]]:
        """:meth:`key_of` for each of ``rows``, which hold every indexed column."""
        return list(zip(*(map(itemgetter(column), rows) for column in self.columns)))

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
        """Positions of rows whose indexed columns equal ``key``."""
        return list(self._buckets.get(key, ()))

    def count(self, key: tuple[object, ...]) -> int:
        """Size of ``key``'s bucket, without copying it."""
        return len(self._buckets.get(key, ()))

    def rebuild(self, rows: Sequence[Row]) -> None:
        """Recompute the index from scratch (after bulk deletes)."""
        self._buckets.clear()
        self.add_keys(self.keys_of(rows), 0)
