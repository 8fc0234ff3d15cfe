"""The Generic pattern: Entity–Attribute–Value physical layout.

"The most frequent type of schematic heterogeneity arises because
contributors often use a generic database layout, where each row in the
database looks like Entity, Attribute, Value."  Read path (Table 1):
"Execute an un-pivot operation" — inverted here, reading back requires the
*pivot*.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import PatternConfigError
from repro.expr.ast import BinaryOp, Identifier, Literal
from repro.patterns.base import ChildPlan, DesignPattern, Schemas, WriteEmit
from repro.relational.algebra import Coerce, Pivot, Plan, Project, Select
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType


class GenericPattern(DesignPattern):
    """Store form rows as (entity, record key, attribute, value-as-text).

    ``forms`` lists the naive tables folded into the EAV table; others
    pass through.  Values are stored as text; the read path pivots back to
    one column per attribute and coerces to the naive types.  NULL-valued
    attributes are not stored (the usual EAV economy), which the pivot's
    NULL-filling makes lossless.
    """

    name = "generic"

    def __init__(
        self,
        forms: list[str],
        eav_table: str = "eav",
        key: str = "record_id",
        entity_column: str = "entity",
        attribute_column: str = "attribute",
        value_column: str = "value",
    ):
        if not forms:
            raise PatternConfigError("generic needs at least one form")
        self.forms = list(forms)
        self.eav_table = eav_table
        self.key = key
        self.entity_column = entity_column
        self.attribute_column = attribute_column
        self.value_column = value_column

    def apply_schema(self, schemas: Schemas) -> Schemas:
        missing = [form for form in self.forms if form not in schemas]
        if missing:
            raise PatternConfigError(f"generic references unknown tables {missing}")
        out = {name: schema for name, schema in schemas.items() if name not in self.forms}
        if self.eav_table in out:
            raise PatternConfigError(f"EAV table {self.eav_table!r} collides")
        key_type = schemas[self.forms[0]].column(self.key).dtype
        out[self.eav_table] = TableSchema(
            self.eav_table,
            (
                Column(self.entity_column, DataType.TEXT, nullable=False),
                Column(self.key, key_type, nullable=False),
                Column(self.attribute_column, DataType.TEXT, nullable=False),
                Column(self.value_column, DataType.TEXT, nullable=True),
            ),
        )
        return out

    def write(self, table: str, row: Mapping[str, object], schemas: Schemas) -> WriteEmit:
        if table not in self.forms:
            return [(table, dict(row))]
        emitted: WriteEmit = []
        for column, value in row.items():
            if column == self.key or value is None:
                continue
            emitted.append(
                (
                    self.eav_table,
                    {
                        self.entity_column: table,
                        self.key: row.get(self.key),
                        self.attribute_column: column,
                        self.value_column: (
                            value if type(value) is str else DataType.TEXT.coerce(value)
                        ),
                    },
                )
            )
        if not emitted:
            # A screen saved with every question unanswered still exists;
            # record its key under a reserved attribute so reads see it.
            emitted.append(
                (
                    self.eav_table,
                    {
                        self.entity_column: table,
                        self.key: row.get(self.key),
                        self.attribute_column: "__present__",
                        self.value_column: None,
                    },
                )
            )
        return emitted

    def plan(self, table: str, child: ChildPlan, schemas: Schemas) -> Plan:
        if table not in self.forms:
            return child(table)
        schema = schemas[table]
        attributes = tuple(c for c in schema.column_names if c != self.key)
        mine = Select(
            child(self.eav_table),
            BinaryOp("=", Identifier.of(self.entity_column), Literal(table)),
        )
        pivoted = Pivot(
            mine,
            key_columns=(self.key,),
            attribute_column=self.attribute_column,
            value_column=self.value_column,
            attributes=attributes,
        )
        coerced = Coerce(
            pivoted,
            tuple((c, schema.column(c).dtype) for c in attributes),
        )
        return Project(coerced, schema.column_names)

    def locate(self, table: str, key: dict[str, object]):
        if table not in self.forms:
            return [(table, dict(key))]
        eav_key = dict(key)
        eav_key[self.entity_column] = table
        return [(self.eav_table, eav_key)]
