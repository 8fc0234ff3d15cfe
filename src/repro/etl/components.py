"""The common ETL component vocabulary.

Hypothesis 3 is argued "by comparing the expressive power of our
classifier language against a set of common ETL components"; this module
is that set.  Each component consumes zero or more input row lists and
produces one output row list.  Components are deliberately ordinary —
extract, filter, derive, clean, project, union, load — so a compiled
study reads like any hand-built warehouse workflow.  Classification has no
component of its own: a compiled study's :class:`Extract` carries the
study's row map, so its rows come out of the read already classified and
shaped (see :mod:`repro.etl.compile`).

Rows are shared along a run, not copied at every step.  The contract:

* no component mutates an input row in place;
* components that only pick rows hand the input rows on as their own
  output (:class:`FilterRows`, :class:`Clean`, :class:`UnionInputs` and
  :class:`Load`); components that extend or reshape rows
  (:class:`DeriveColumn`, :class:`AddConstant`, :class:`ProjectColumns`)
  build new ones;
* the rows an :class:`Extract` hands out are the source's kept rows,
  shared and read-only (see
  :meth:`~repro.guava.source.GuavaSource.execute`: each read is a new
  list, a result memo hit copies no row), and :class:`Load` stores copies
  (``Table.insert_many`` copies what it stores).

So the outputs of one run may share rows with each other and with the
result memo — a union's rows are its extracts' rows, which are the memo's
— but never with a source table or a loaded warehouse table.  A caller
that changes an output row builds a new dict.

Row-wise predicates and expressions evaluate through the compiled-closure
path (:mod:`repro.expr.compile`), whose three-valued-logic parity with the
tree-walking :class:`~repro.expr.evaluator.Evaluator` is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import ETLError
from repro.expr.ast import Expression
from repro.expr.compile import compile_expression, compile_predicate
from repro.expr.parser import parse
from repro.multiclass.cleaning import Quarantine, apply_rules
from repro.multiclass.study import EntityRowMap
from repro.guava.query import GTreeQuery
from repro.relational.database import Database
from repro.relational.schema import TableSchema

if TYPE_CHECKING:
    from repro.guava.source import GuavaSource

Row = dict[str, object]


@dataclass
class Component:
    """Base ETL component: ``run(inputs) -> rows``."""

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        raise NotImplementedError

    def expects(self, count: int, inputs: Sequence[list[Row]]) -> None:
        if len(inputs) != count:
            raise ETLError(
                f"{type(self).__name__} expects {count} input(s), got {len(inputs)}"
            )


@dataclass
class Extract(Component):
    """Pull a g-tree view's rows out of a GUAVA source.

    In a compiled study the query is the entity classifier's g-tree query
    and ``row_map`` the study's row map for it — the bridge from Figure
    6's "Source" box through the classifiers: rows come out classified and
    output-shaped, and records a record-scoped cleaning rule discards go
    to ``quarantine``.  It reads through
    :meth:`~repro.guava.source.GuavaSource.execute`, the call a
    ``Study.run`` preview makes for the same query and map: a publish
    shares the preview's plan-cache entry and, at an unchanged data
    version, its memoized row objects, read-only (only the list is new).
    """

    source: GuavaSource
    query: GTreeQuery
    row_map: EntityRowMap | None = None
    quarantine: Quarantine = field(default_factory=Quarantine)

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(0, inputs)
        return self.read(self.quarantine)

    def read(self, quarantine: Quarantine) -> list[Row]:
        """The read's rows, its discards added to ``quarantine``."""
        rows = self.source.execute(self.query, row_map=self.row_map)
        if self.row_map is None:
            return rows
        return self.row_map.sift(rows, quarantine)


@dataclass
class Values(Component):
    """A literal input (tests and backfills)."""

    rows: list[Row] = field(default_factory=list)

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(0, inputs)
        return [dict(row) for row in self.rows]


@dataclass
class FilterRows(Component):
    """Keep rows satisfying a condition (NULL filters out)."""

    condition: Expression

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse(self.condition)

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        satisfied = compile_predicate(self.condition)
        return [row for row in inputs[0] if satisfied(row)]


@dataclass
class DeriveColumn(Component):
    """Extend rows with a computed column."""

    name: str
    expression: Expression

    def __post_init__(self) -> None:
        if isinstance(self.expression, str):
            self.expression = parse(self.expression)

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        compute = compile_expression(self.expression)
        out = []
        for row in inputs[0]:
            extended = dict(row)
            extended[self.name] = compute(row)
            out.append(extended)
        return out


@dataclass
class Clean(Component):
    """Apply DISCARD WHEN cleaning rules, quarantining removed rows.

    The §6 extension compiled into ETL form: discards are diverted into a
    shared :class:`~repro.multiclass.cleaning.Quarantine` rather than
    silently dropped.
    """

    rules: list
    source_name: str
    scope: str
    quarantine: Quarantine

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        return apply_rules(
            self.rules, list(inputs[0]), self.source_name, self.scope, self.quarantine
        )


@dataclass
class ProjectColumns(Component):
    """Keep only the named columns (missing ones become NULL)."""

    columns: tuple[str, ...]

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        return [
            {column: row.get(column) for column in self.columns}
            for row in inputs[0]
        ]


@dataclass
class AddConstant(Component):
    """Stamp every row with a constant column (e.g. the source name)."""

    column: str
    value: object

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        out = []
        for row in inputs[0]:
            extended = dict(row)
            extended[self.column] = self.value
            out.append(extended)
        return out


@dataclass
class UnionInputs(Component):
    """Concatenate all inputs — the contributor integration step."""

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        if not inputs:
            raise ETLError("UnionInputs needs at least one input")
        out: list[Row] = []
        for rows in inputs:
            out.extend(rows)
        return out


@dataclass
class Load(Component):
    """Write rows into a warehouse table (created if absent), pass through."""

    db: Database
    schema: TableSchema
    replace: bool = True

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        rows = inputs[0] if isinstance(inputs[0], list) else list(inputs[0])
        self._begin().insert_many(self._projected(rows))
        return rows

    def _projected(self, rows: list[Row]) -> list[Row]:
        """``rows`` without the columns the target table lacks.

        One check over the union of the batch's keys, not one per row:
        when no row has a column the table lacks, the rows go to
        ``insert_many`` as they are, and its column-wise checks (shape,
        types, NOT NULL, primary key) run there.  ``insert_many`` copies
        what it stores, so the rows handed back downstream never alias the
        table's, and the input rows, which may be the result memo's, are
        never changed.
        """
        if self.schema.column_set.issuperset(set().union(*rows)):
            return rows
        columns = self.schema.column_names
        return [{c: row.get(c) for c in columns} for row in rows]

    def _begin(self):
        if self.db.has_table(self.schema.name) and self.replace:
            self.db.drop_table(self.schema.name)
        return self.db.ensure_table(self.schema)
