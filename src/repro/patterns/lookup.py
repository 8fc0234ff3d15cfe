"""The Lookup pattern: choice values stored as codes with code tables."""

from __future__ import annotations

from typing import Mapping
from weakref import WeakKeyDictionary

from repro.errors import PatternConfigError, PatternWriteError
from repro.patterns.base import ChildPlan, DesignPattern, Schemas, WriteEmit
from repro.relational.algebra import Join, Plan, Project, Rename
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType


class LookupPattern(DesignPattern):
    """Replace text columns with integer codes plus a lookup table each.

    ``columns`` maps ``(table, column)`` to a lookup-table name.  Codes are
    assigned on first sight at write time (as vendor tools do); the read
    path joins the code table back and restores the original column name.
    The assignments belong to the database written: deploying the chain
    loads them from its lookup tables, so a reopened database keeps its
    codes and an empty one starts with none, even when one chain object
    serves several databases.
    """

    name = "lookup"

    def __init__(self, columns: Mapping[tuple[str, str], str], key: str = "record_id"):
        if not columns:
            raise PatternConfigError("lookup needs at least one column mapping")
        self.columns = dict(columns)
        self.key = key
        lookup_names = list(self.columns.values())
        if len(set(lookup_names)) != len(lookup_names):
            raise PatternConfigError("lookup tables must be distinct per column")
        # Per table, its looked-up columns' lookup tables: built once, read
        # for every written row.
        self._by_table: dict[str, dict[str, str]] = {}
        for (table, column), lookup in self.columns.items():
            self._by_table.setdefault(table, {})[column] = lookup
        # Write-time state: per database, per lookup table, label -> code.
        self._codes: WeakKeyDictionary[Database, dict[str, dict[str, int]]] = (
            WeakKeyDictionary()
        )

    def attach(self, db: Database, read) -> None:
        self._codes[db] = {
            lookup: {str(row["label"]): int(row["code"]) for row in read(lookup)}
            for lookup in self.columns.values()
        }

    def _columns_of(self, table: str) -> dict[str, str]:
        return self._by_table.get(table, {})

    def apply_schema(self, schemas: Schemas) -> Schemas:
        out: Schemas = {}
        for name, schema in schemas.items():
            mapped = self._columns_of(name)
            if not mapped:
                out[name] = schema
                continue
            new_columns: list[Column] = []
            for column in schema.columns:
                if column.name in mapped:
                    if column.dtype is not DataType.TEXT:
                        raise PatternConfigError(
                            f"lookup column {name}.{column.name} must be TEXT"
                        )
                    new_columns.append(
                        Column(f"{column.name}_code", DataType.INTEGER, nullable=True)
                    )
                else:
                    new_columns.append(column)
            out[name] = TableSchema(name, tuple(new_columns), schema.primary_key)
        for (table, column), lookup in self.columns.items():
            if table not in schemas:
                raise PatternConfigError(f"lookup references unknown table {table!r}")
            if not schemas[table].has_column(column):
                raise PatternConfigError(
                    f"lookup references unknown column {table}.{column}"
                )
            if lookup in out:
                raise PatternConfigError(f"lookup table {lookup!r} collides")
            out[lookup] = TableSchema(
                lookup,
                (
                    Column("code", DataType.INTEGER, nullable=False),
                    Column("label", DataType.TEXT, nullable=False),
                ),
                primary_key=("code",),
            )
        return out

    def write(self, table: str, row: Mapping[str, object], schemas: Schemas) -> WriteEmit:
        raise PatternWriteError(
            "lookup codes belong to a database: write through PatternChain.write"
        )

    def write_to(
        self, db: Database, table: str, row: Mapping[str, object], schemas: Schemas
    ) -> WriteEmit:
        mapped = self._columns_of(table)
        if not mapped:
            return [(table, dict(row))]
        assigned = self._codes.get(db)
        if assigned is None:  # a database the chain was never deployed to
            assigned = {lookup: {} for lookup in self.columns.values()}
            self._codes[db] = assigned
        emitted: WriteEmit = []
        encoded = dict(row)
        for column, lookup in mapped.items():
            value = encoded.pop(column, None)
            if value is None:
                encoded[f"{column}_code"] = None
                continue
            text = str(value)
            codes = assigned[lookup]
            if text not in codes:
                codes[text] = len(codes) + 1
                emitted.append((lookup, {"code": codes[text], "label": text}))
            encoded[f"{column}_code"] = codes[text]
        emitted.append((table, encoded))
        return emitted

    def plan(self, table: str, child: ChildPlan, schemas: Schemas) -> Plan:
        mapped = self._columns_of(table)
        if not mapped:
            return child(table)
        plan: Plan = child(table)
        for column, lookup in mapped.items():
            decoded = Rename(
                child(lookup), (("code", f"{column}_code"), ("label", column))
            )
            plan = Join(
                plan,
                decoded,
                on=((f"{column}_code", f"{column}_code"),),
                how="left",
            )
        return Project(plan, schemas[table].column_names)

    def locate(self, table: str, key: dict[str, object]):
        # Lookup rows are shared across records: only the base row locates.
        return [(table, dict(key))]
