"""Table schemas: columns, types, nullability, primary keys, partitioning."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property

from repro.errors import SchemaError
from repro.relational.types import DataType

# Unforgeable tag keeping BOOLEAN keys out of their hash-equal integers'
# partitions — the same segregation rule as ``canonical_key`` (which lives
# above this module in the import graph, so the tag is duplicated here).
_BOOL_TAG = object()


def _partition_key(value: object) -> object:
    """A hashable stand-in for ``value`` in partition assignment.

    Must satisfy one direction only: values that are SQL-equal map to the
    same key (so pruning by a literal can never miss a matching row).
    Collisions the other way — SQL-distinct values sharing a partition —
    are harmless, they just scan a superset.
    """
    if isinstance(value, bool):
        return (_BOOL_TAG, value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


@dataclass(frozen=True)
class HashPartitioning:
    """Hash-partition a table by one column into a fixed partition count.

    NULL keys all land in partition 0 (so ``IS NULL`` can prune to one
    partition); everything else buckets on ``hash(_partition_key(value))``.
    Hash order is meaningless, so range predicates never prune here.
    """

    column: str
    partitions: int

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise SchemaError("hash partitioning needs at least one partition")

    @property
    def partition_count(self) -> int:
        return self.partitions

    @property
    def null_partition(self) -> int:
        return 0

    def partition_of(self, value: object) -> int:
        if value is None:
            return self.null_partition
        return hash(_partition_key(value)) % self.partitions

    def partitions_for_compare(self, op: str, value: object) -> frozenset[int] | None:
        """Partitions possibly satisfying ``column <op> value``; None = all."""
        return None  # hash scatters the ordering pruning would need

    def describe(self) -> str:
        return f"hash({self.column}) % {self.partitions}"


@dataclass(frozen=True)
class RangePartitioning:
    """Range-partition a table by one column over sorted boundary literals.

    ``boundaries`` ``(b1, …, bk)`` define ``k + 1`` partitions: partition 0
    holds values below ``b1`` (and all NULLs, which sort first), partition
    ``i`` holds ``[b_i, b_{i+1})``, and the last holds ``[b_k, ∞)``.
    Boundaries must be mutually comparable and strictly increasing.
    """

    column: str
    boundaries: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.boundaries, tuple):
            object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if not self.boundaries:
            raise SchemaError("range partitioning needs at least one boundary")
        try:
            increasing = all(
                a < b for a, b in zip(self.boundaries, self.boundaries[1:])
            )
        except TypeError as exc:
            raise SchemaError(f"range boundaries are not comparable: {exc}") from exc
        if not increasing:
            raise SchemaError("range boundaries must be strictly increasing")

    @property
    def partition_count(self) -> int:
        return len(self.boundaries) + 1

    @property
    def null_partition(self) -> int:
        return 0

    def partition_of(self, value: object) -> int:
        if value is None:
            return self.null_partition
        try:
            return bisect_right(self.boundaries, value)
        except TypeError:
            # Values incomparable with the boundaries (mixed-type columns)
            # collapse into partition 0; pruning stays conservative there.
            return 0

    def partitions_for_compare(self, op: str, value: object) -> frozenset[int] | None:
        """Partitions possibly satisfying ``column <op> value``; None = all.

        Comparisons against a value incomparable with the boundaries keep
        every partition — a NULL-yielding or raising comparison must not
        prune rows the residual predicate is entitled to see.
        """
        if value is None:
            return frozenset()  # col <op> NULL is NULL for every row
        try:
            pivot = bisect_right(self.boundaries, value)
        except TypeError:
            return None
        last = len(self.boundaries)
        if op in (">", ">="):
            return frozenset(range(pivot, last + 1))
        if op == "<=":
            # Partition `pivot` starts at a boundary <= value, so it can
            # still hold smaller values; everything above it cannot.
            return frozenset(range(0, pivot + 1))
        if op == "<":
            # Strict: a value sitting exactly on a boundary excludes the
            # partition that starts there (bisect_left lands below it).
            return frozenset(range(0, bisect_left(self.boundaries, value) + 1))
        return None

    def describe(self) -> str:
        return f"range({self.column}: {len(self.boundaries)} boundaries)"


#: Either concrete scheme; tables accept one or none.
PartitionScheme = HashPartitioning | RangePartitioning


def partitioning_to_doc(scheme: PartitionScheme | None) -> dict | None:
    """A JSON-able document for a partition scheme (None stays None).

    Shared by the legacy JSON snapshot, the columnar snapshot files, and
    the WAL's ``repartition`` records, so all three persistence paths
    agree on one wire format.  Date boundaries serialize in ISO form.
    """
    if scheme is None:
        return None
    if isinstance(scheme, HashPartitioning):
        return {
            "kind": "hash",
            "column": scheme.column,
            "partitions": scheme.partitions,
        }
    return {
        "kind": "range",
        "column": scheme.column,
        "boundaries": [
            boundary.isoformat() if isinstance(boundary, date) else boundary
            for boundary in scheme.boundaries
        ],
    }


def partitioning_from_doc(
    doc: dict | None, columns: tuple["Column", ...]
) -> PartitionScheme | None:
    """Rebuild a partition scheme from :func:`partitioning_to_doc` output.

    ``columns`` supply the partition column's dtype so range boundaries
    stored in ISO form revive as dates.
    """
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind == "hash":
        return HashPartitioning(doc["column"], int(doc["partitions"]))
    if kind == "range":
        dtype = next((c.dtype for c in columns if c.name == doc["column"]), None)
        boundaries = tuple(
            dtype.coerce(b) if dtype is not None else b for b in doc["boundaries"]
        )
        return RangePartitioning(doc["column"], boundaries)
    raise SchemaError(f"unsupported partitioning kind {kind!r}")


@dataclass(frozen=True)
class Column:
    """One typed column."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def __str__(self) -> str:
        suffix = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.dtype.value.upper()}{suffix}"


@dataclass(frozen=True)
class TableSchema:
    """Ordered columns plus an optional primary key and partition scheme."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())
    partitioning: PartitionScheme | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        names = [column.name for column in self.columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"duplicate column names in {self.name}: {sorted(duplicates)}")
        for key_column in self.primary_key:
            if key_column not in names:
                raise SchemaError(
                    f"primary key column {key_column!r} not in table {self.name}"
                )
        if self.partitioning is not None and self.partitioning.column not in names:
            raise SchemaError(
                f"partition column {self.partitioning.column!r} not in table {self.name}"
            )

    @classmethod
    def build(
        cls,
        name: str,
        columns: list[Column] | list[tuple[str, DataType]],
        primary_key: tuple[str, ...] | list[str] = (),
        partition_by: PartitionScheme | None = None,
    ) -> "TableSchema":
        """Convenience constructor accepting ``(name, dtype)`` pairs."""
        normalized: list[Column] = []
        for item in columns:
            if isinstance(item, Column):
                normalized.append(item)
            else:
                col_name, dtype = item
                normalized.append(Column(col_name, dtype))
        return cls(name, tuple(normalized), tuple(primary_key), partition_by)

    # Cached in the instance ``__dict__``, which a frozen dataclass leaves
    # out of eq, hash and repr: both are pure functions of ``columns``.
    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @cached_property
    def column_set(self) -> frozenset[str]:
        """The column names as a set, for membership checks."""
        return frozenset(self.column_names)

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        for candidate in self.columns:
            if candidate.name == name:
                return candidate
        raise SchemaError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    def with_columns(self, extra: list[Column]) -> "TableSchema":
        """A copy of this schema with ``extra`` columns appended."""
        return TableSchema(
            self.name, self.columns + tuple(extra), self.primary_key, self.partitioning
        )

    def renamed(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different table name."""
        return TableSchema(new_name, self.columns, self.primary_key, self.partitioning)

    def repartitioned(self, partitioning: PartitionScheme | None) -> "TableSchema":
        """A copy of this schema under a different partition scheme."""
        return TableSchema(self.name, self.columns, self.primary_key, partitioning)

    def __str__(self) -> str:
        cols = ", ".join(str(column) for column in self.columns)
        pk = f", PRIMARY KEY ({', '.join(self.primary_key)})" if self.primary_key else ""
        part = (
            f" PARTITION BY {self.partitioning.describe()}" if self.partitioning else ""
        )
        return f"{self.name}({cols}{pk}){part}"


def schema_to_doc(schema: TableSchema) -> dict:
    """A JSON-able document for a whole table schema (one wire format for
    the JSON snapshot, the columnar snapshot files, and WAL DDL records)."""
    doc: dict = {
        "name": schema.name,
        "columns": [
            {
                "name": column.name,
                "type": column.dtype.value,
                "nullable": column.nullable,
            }
            for column in schema.columns
        ],
        "primary_key": list(schema.primary_key),
    }
    partitioning = partitioning_to_doc(schema.partitioning)
    if partitioning is not None:
        doc["partitioning"] = partitioning
    return doc


def schema_from_doc(doc: dict) -> TableSchema:
    """Rebuild a table schema from :func:`schema_to_doc` output."""
    columns = tuple(
        Column(c["name"], DataType(c["type"]), c.get("nullable", True))
        for c in doc["columns"]
    )
    return TableSchema(
        doc["name"],
        columns,
        tuple(doc.get("primary_key", ())),
        partitioning_from_doc(doc.get("partitioning"), columns),
    )
