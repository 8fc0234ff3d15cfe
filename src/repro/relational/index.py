"""Hash indexes over table columns."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

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

    def add(self, row: Row, position: int) -> None:
        self._buckets[self.key_of(row)].append(position)

    def lookup(self, key: tuple[object, ...]) -> list[int]:
        """Positions of rows whose indexed columns equal ``key``."""
        return list(self._buckets.get(key, ()))

    def count(self, key: tuple[object, ...]) -> int:
        """Size of ``key``'s bucket, without copying it."""
        return len(self._buckets.get(key, ()))

    def rebuild(self, rows: Iterable[Row]) -> None:
        """Recompute the index from scratch (after bulk deletes)."""
        self._buckets.clear()
        for position, row in enumerate(rows):
            self.add(row, position)

    def __len__(self) -> int:
        return sum(len(positions) for positions in self._buckets.values())
