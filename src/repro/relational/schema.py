"""Table schemas: columns, types, nullability, primary keys."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

from repro.errors import SchemaError
from repro.relational.types import DataType

#: What a stored value of one column must pass: (column name, native type,
#: coercer, nullable).
ColumnCheck = tuple[str, type, Callable[[object], object], bool]

#: A row as it leaves a table, and a reader of one by its position.
RowDict = dict[str, object]
RowAt = Callable[[int], RowDict]


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
    """Ordered columns plus an optional primary key."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = field(default=())

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

    @classmethod
    def build(
        cls,
        name: str,
        columns: list[Column] | list[tuple[str, DataType]],
        primary_key: tuple[str, ...] | list[str] = (),
    ) -> "TableSchema":
        """Convenience constructor accepting ``(name, dtype)`` pairs."""
        normalized: list[Column] = []
        for item in columns:
            if isinstance(item, Column):
                normalized.append(item)
            else:
                col_name, dtype = item
                normalized.append(Column(col_name, dtype))
        return cls(name, tuple(normalized), tuple(primary_key))

    # Cached in the instance ``__dict__``, which a frozen dataclass leaves
    # out of eq, hash and repr: both are pure functions of ``columns``.
    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @cached_property
    def column_set(self) -> frozenset[str]:
        """The column names as a set, for membership checks."""
        return frozenset(self.column_names)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each column's position in a stored row (schema order)."""
        return {name: position for position, name in enumerate(self.column_names)}

    @cached_property
    def _row_builders(self) -> tuple[Callable[..., RowDict], Callable[..., RowAt]]:
        """The generated :attr:`row_dict` and :attr:`row_reader`."""
        return _row_builder_factory(len(self.columns))(*self.column_names)

    @property
    def row_dict(self) -> Callable[..., RowDict]:
        """``row_dict(v0, v1, …)``: one row's values, in schema order, as a
        new dict — the form every row leaves its table in."""
        return self._row_builders[0]

    @property
    def row_reader(self) -> Callable[..., RowAt]:
        """``row_reader(c0, c1, …)(position)``: the row at ``position`` of
        the column lists ``c0, c1, …`` (schema order) as a new dict.  The
        reader holds the lists themselves, so it sees later changes to
        them."""
        return self._row_builders[1]

    @cached_property
    def checks(self) -> tuple[ColumnCheck, ...]:
        """The row check of every table with this schema, one entry a column.

        A value of the column's native type (a finite float for FLOAT) is
        stored as it is; NULL is checked against ``nullable``; anything else
        goes through the coercer, ``DataType.coerce``.
        """
        return tuple(
            (column.name, column.dtype.native, column.dtype.coerce, column.nullable)
            for column in self.columns
        )

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
        return TableSchema(self.name, self.columns + tuple(extra), self.primary_key)

    def renamed(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different table name."""
        return TableSchema(new_name, self.columns, self.primary_key)

    def __str__(self) -> str:
        cols = ", ".join(str(column) for column in self.columns)
        pk = f", PRIMARY KEY ({', '.join(self.primary_key)})" if self.primary_key else ""
        return f"{self.name}({cols}{pk})"


@cache
def _row_builder_factory(width: int) -> Callable[..., tuple[Callable, Callable]]:
    """``make(*column_names)``: the row builders of a ``width``-column schema.

    Generated once per width, as ``collections.namedtuple`` generates its
    methods: arguments or list cells read into a dict display build a row
    about twice as fast as ``dict(zip(column_names, values))``.  The
    column names are closure cells, never source text, so every schema of
    one width shares the code and pays only for its closures.
    """
    keys = ", ".join(f"k{position}" for position in range(width))
    values = ", ".join(f"v{position}" for position in range(width))
    columns = ", ".join(f"c{position}" for position in range(width))
    by_value = ", ".join(f"k{position}: v{position}" for position in range(width))
    by_cell = ", ".join(f"k{position}: c{position}[p]" for position in range(width))
    source = (
        f"def make({keys}):\n"
        f"    def row_dict({values}):\n"
        f"        return {{{by_value}}}\n"
        f"    def row_reader({columns}):\n"
        "        def row_at(p):\n"
        f"            return {{{by_cell}}}\n"
        "        return row_at\n"
        "    return row_dict, row_reader\n"
    )
    namespace: dict[str, Callable] = {}
    exec(source, namespace)
    return namespace["make"]


def schema_to_doc(schema: TableSchema) -> dict:
    """A JSON-able document for a whole table schema (one wire format for
    the JSON snapshot, the columnar snapshot files, and WAL DDL records)."""
    return {
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


def schema_from_doc(doc: dict) -> TableSchema:
    """Rebuild a table schema from :func:`schema_to_doc` output.

    A document that partitions its table comes from a store written when
    tables could be partitioned; it raises :class:`SchemaError`, which
    recovery reports as a malformed store.
    """
    if "partitioning" in doc:
        raise SchemaError(
            f"table {doc.get('name')!r} is partitioned; partitioned tables "
            "are not supported"
        )
    columns = tuple(
        Column(c["name"], DataType(c["type"]), c.get("nullable", True))
        for c in doc["columns"]
    )
    return TableSchema(doc["name"], columns, tuple(doc.get("primary_key", ())))
