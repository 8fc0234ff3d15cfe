"""The Encoding pattern: values stored as opaque in-place codes."""

from __future__ import annotations

from typing import Mapping

from repro.errors import PatternConfigError, PatternWriteError
from repro.expr.ast import BinaryOp, Expression, FunctionCall, Identifier, Literal
from repro.patterns.base import ChildPlan, DesignPattern, Schemas, WriteEmit
from repro.relational.algebra import Compute, Plan, Project
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType


class EncodingPattern(DesignPattern):
    """Columns hold vendor codes instead of the naive values.

    Classic examples: booleans stored as ``'Y'``/``'N'``, options stored as
    ``1``/``2``/``3``.  Unlike :class:`LookupPattern` there is no join
    table — the code book lives only in the application (and, through
    GUAVA, in the g-tree).  ``encodings`` maps ``(table, column)`` to a
    ``{naive value: stored code}`` dict.
    """

    name = "encoding"

    def __init__(self, encodings: Mapping[tuple[str, str], Mapping[object, object]]):
        if not encodings:
            raise PatternConfigError("encoding needs at least one column mapping")
        self.encodings = {key: dict(mapping) for key, mapping in encodings.items()}
        for (table, column), mapping in self.encodings.items():
            if not mapping:
                raise PatternConfigError(f"empty code book for {table}.{column}")
            codes = list(mapping.values())
            if len(set(map(repr, codes))) != len(codes):
                raise PatternConfigError(
                    f"{table}.{column}: distinct values share a code"
                )
        # Per table, its encoded columns' code books: built once, read
        # for every written row.
        self._by_table: dict[str, dict[str, dict[object, object]]] = {}
        for (table, column), mapping in self.encodings.items():
            self._by_table.setdefault(table, {})[column] = mapping

    def _columns_of(self, table: str) -> dict[str, dict[object, object]]:
        return self._by_table.get(table, {})

    @staticmethod
    def _code_type(mapping: Mapping[object, object]) -> DataType:
        codes = list(mapping.values())
        if all(isinstance(code, int) and not isinstance(code, bool) for code in codes):
            return DataType.INTEGER
        if all(isinstance(code, str) for code in codes):
            return DataType.TEXT
        raise PatternConfigError("code book mixes integer and text codes")

    def apply_schema(self, schemas: Schemas) -> Schemas:
        for (table, column) in self.encodings:
            if table not in schemas:
                raise PatternConfigError(f"encoding references unknown table {table!r}")
            if not schemas[table].has_column(column):
                raise PatternConfigError(
                    f"encoding references unknown column {table}.{column}"
                )
        out: Schemas = {}
        for name, schema in schemas.items():
            mapped = self._columns_of(name)
            if not mapped:
                out[name] = schema
                continue
            new_columns = []
            for column in schema.columns:
                if column.name in mapped:
                    new_columns.append(
                        Column(column.name, self._code_type(mapped[column.name]), True)
                    )
                else:
                    new_columns.append(column)
            out[name] = TableSchema(name, tuple(new_columns), schema.primary_key)
        return out

    def write(self, table: str, row: Mapping[str, object], schemas: Schemas) -> WriteEmit:
        mapped = self._columns_of(table)
        if not mapped:
            return [(table, dict(row))]
        encoded = dict(row)
        for column, mapping in mapped.items():
            value = encoded.get(column)
            if value is None:
                continue
            if value not in mapping:
                raise PatternWriteError(
                    f"{table}.{column}: value {value!r} has no code"
                )
            encoded[column] = mapping[value]
        return [(table, encoded)]

    def plan(self, table: str, child: ChildPlan, schemas: Schemas) -> Plan:
        mapped = self._columns_of(table)
        if not mapped:
            return child(table)
        derivations = []
        for column, mapping in mapped.items():
            derivations.append((column, _decode_expression(column, mapping)))
        decoded = Compute(child(table), tuple(derivations))
        return Project(decoded, schemas[table].column_names)


def _decode_expression(column: str, mapping: Mapping[object, object]) -> Expression:
    """Nested IIF chain turning stored codes back into naive values."""
    expression: Expression = Literal(None)
    for naive_value, code in reversed(list(mapping.items())):
        test = BinaryOp("=", Identifier.of(column), Literal(code))
        expression = FunctionCall("IIF", (test, Literal(naive_value), expression))
    return expression
