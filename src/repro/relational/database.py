"""A named collection of tables."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.relational.schema import TableSchema
from repro.relational.table import Table, register_restore_listener

#: Bumped on every table restore (snapshot load, WAL replay).  Restore can
#: rewind a table's data version to one a result was memoized at while the
#: extent holds other rows, so the result memo stamps entries with it.
_restore_generation = 0


def _count_restore(_table: Table) -> None:
    global _restore_generation
    _restore_generation += 1


register_restore_listener(_count_restore)


def restore_generation() -> int:
    """How many table restores this process has seen (a memo stamp part)."""
    return _restore_generation


class Database:
    """One contributor database (or the warehouse)."""

    #: Plan-cache capacity; the cache is cleared wholesale when full, the
    #: same bound-without-bookkeeping policy as expr/compile.py's caches.
    #: The result memo shares it.
    PLAN_CACHE_LIMIT = 512

    def __init__(self, name: str):
        if not name:
            raise SchemaError("database name must be non-empty")
        self.name = name
        self._tables: dict[str, Table] = {}
        self._structure_version = 0
        #: key -> (plan epoch, plan).
        self._plan_cache: dict[str, tuple[int, object]] = {}
        #: The result memo: key -> (validity stamp, kept rows, their state).
        #: ``GuavaSource`` reads, fills and bounds it (see
        #: ``GuavaSource._raw``); the database clears it with the plan cache.
        self._result_memo: dict[str, tuple] = {}
        # Structure listener: the durability layer's DDL hook, called after
        # create_table/drop_table with (op, payload).  Payloads carry the
        # Table on create so the listener can chain a mutation listener.
        self._structure_listener: (
            Callable[[str, dict[str, object]], None] | None
        ) = None

    def set_structure_listener(
        self, listener: Callable[[str, dict[str, object]], None] | None
    ) -> None:
        """Install (or clear) the single DDL listener (durability hook)."""
        self._structure_listener = listener

    def _notify(self, op: str, payload: dict[str, object]) -> None:
        listener = self._structure_listener
        if listener is not None:
            listener(op, payload)

    @property
    def structure_version(self) -> int:
        """The structural (DDL) counter: table creates and drops."""
        return self._structure_version

    @property
    def plan_epoch(self) -> int:
        """The version every cached plan depends on.

        The structural counter plus every table's index epoch: a table
        create/drop or an index create/drop moves it; inserts, updates and
        deletes do not.  Each part only grows within one process
        (``drop_table`` folds the dropped table's epochs into the
        structural counter), so the sum is monotone.
        """
        total = self._structure_version
        for table in self._tables.values():
            total += table.index_epoch
        return total

    def plan_cache_get(self, key: str, epoch: int) -> object | None:
        """The plan cached under ``key`` if it was planned at ``epoch``.

        Callers pass the current :attr:`plan_epoch`, so an entry stays
        valid until the next table or index change; no plan depends on a
        data version.  Anything else is a miss.
        """
        entry = self._plan_cache.get(key)
        if entry is None or entry[0] != epoch:
            return None
        return entry[1]

    def plan_cache_put(self, key: str, epoch: int, plan: object) -> None:
        """Cache ``plan`` as planned at :attr:`plan_epoch` ``epoch``."""
        if len(self._plan_cache) >= self.PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[key] = (epoch, plan)

    def plan_cache_clear(self) -> None:
        """Drop every cached plan and every memoized result."""
        self._plan_cache.clear()
        self._result_memo.clear()

    def create_table(self, schema: TableSchema) -> Table:
        """Create an empty table; raises on duplicate names."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists in {self.name}")
        table = Table(schema)
        self._tables[schema.name] = table
        self._structure_version += 1
        self._notify("create_table", {"schema": schema, "table": table})
        return table

    def ensure_table(self, schema: TableSchema) -> Table:
        """Return the existing table or create it; schemas must agree."""
        existing = self._tables.get(schema.name)
        if existing is None:
            return self.create_table(schema)
        if existing.schema != schema:
            raise SchemaError(
                f"table {schema.name!r} exists with a different schema"
            )
        return existing

    def drop_table(self, name: str) -> None:
        """Remove a table and its data."""
        if name not in self._tables:
            raise SchemaError(f"no table {name!r} in database {self.name}")
        dropped = self._tables.pop(name)
        # Fold the dropped table's contribution into the structural counter so
        # plan_epoch never rewinds to a value it held before the drop.
        self._structure_version += 1 + dropped.version + dropped.index_epoch
        self._notify("drop_table", {"name": name, "table": dropped})

    def restore_structure_version(self, version: int) -> None:
        """Set the structural counter to an exact recovered value (restore only).

        Recovery needs :attr:`plan_epoch` bit-identical to the crashed process's
        so a plan cached before the crash could never be mistaken for one
        planned against the recovered data; the plan cache and the result
        memo are cleared too since their entries were made by a process
        that no longer exists.
        """
        self._structure_version = version
        self.plan_cache_clear()

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        if name not in self._tables:
            raise SchemaError(f"no table {name!r} in database {self.name}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._tables)

    def insert(self, table_name: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Bulk insert into a named table."""
        return self.table(table_name).insert_many(rows)

    def tables_version(self, names: Iterable[str]) -> int:
        """The summed data versions of the named tables (absent ones add 0)."""
        tables = self._tables
        return sum(tables[name].version for name in names if name in tables)

    def tables_versions(self, names: Iterable[str]) -> tuple[int, ...]:
        """Each named table's data version (-1 for an absent table)."""
        tables = self._tables
        return tuple(
            tables[name].version if name in tables else -1 for name in names
        )

    def total_rows(self) -> int:
        """Row count across all tables (used by storage-size benchmarks)."""
        return sum(len(table) for table in self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.table_names()})"

