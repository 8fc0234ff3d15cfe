"""A named collection of tables."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.relational.schema import TableSchema
from repro.relational.table import Table


class Database:
    """One contributor database (or the warehouse)."""

    #: Plan-cache capacity; the cache is cleared wholesale when full, the
    #: same bound-without-bookkeeping policy as expr/compile.py's caches.
    PLAN_CACHE_LIMIT = 512

    def __init__(self, name: str):
        if not name:
            raise SchemaError("database name must be non-empty")
        self.name = name
        self._tables: dict[str, Table] = {}
        self._structure_version = 0
        self._plan_cache: dict[str, tuple[int, object]] = {}
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
        """The structural (DDL) counter component of :attr:`epoch`."""
        return self._structure_version

    @property
    def epoch(self) -> int:
        """Monotone schema/data/index version for plan-cache keying.

        Sums the structural counter (table create/drop) with every table's
        data version, index epoch, and partition epoch.  Each component only
        ever increases within one process, so the sum is monotone: any
        insert, delete, update, index create/drop, table create/drop, or
        repartition yields a new epoch and invalidates cached plans.
        (:func:`database_version` — data versions only — is left
        untouched; the GUAVA change feed keys on it.)
        """
        total = self._structure_version
        for table in self._tables.values():
            total += table.version + table.index_epoch + table.partition_epoch
        return total

    def plan_cache_get(self, fingerprint: str, epoch: int) -> object | None:
        """The plan cached under ``fingerprint`` if it was planned at ``epoch``."""
        entry = self._plan_cache.get(fingerprint)
        if entry is not None and entry[0] == epoch:
            return entry[1]
        return None

    def plan_cache_put(self, fingerprint: str, epoch: int, plan: object) -> None:
        if len(self._plan_cache) >= self.PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[fingerprint] = (epoch, plan)

    def plan_cache_clear(self) -> None:
        self._plan_cache.clear()

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
        # the epoch never rewinds to a value it held before the drop.
        self._structure_version += (
            1 + dropped.version + dropped.index_epoch + dropped.partition_epoch
        )
        self._notify("drop_table", {"name": name, "table": dropped})

    def restore_structure_version(self, version: int) -> None:
        """Set the structural counter to an exact recovered value (restore only).

        Recovery needs :attr:`epoch` bit-identical to the crashed process's
        so a plan cached before the crash could never be mistaken for one
        planned against the recovered data; the plan cache is cleared too
        since its entries were planned by a process that no longer exists.
        """
        self._structure_version = version
        self._plan_cache.clear()

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

    def total_rows(self) -> int:
        """Row count across all tables (used by storage-size benchmarks)."""
        return sum(len(table) for table in self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.table_names()})"


def database_version(db: Database) -> int:
    """Monotone data version of a whole database.

    The sum of per-table versions, which only grows while tables are
    mutated in place.  Dropping a table makes the sum regress; consumers
    (incremental materialization) treat any unexpected value as broken
    lineage and fall back to a full rebuild, so regression is safe.
    """
    return sum(table.version for table in db)
