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

Two execution protocols coexist:

* :meth:`Component.run` — the serial list-in/list-out contract the seed
  shipped with.  It stays the behavioural oracle: every component copies
  rows before extending them, so each step's output is independent.
* :meth:`Component.open_stream` — the batched contract the workflow
  engine uses.  A stream transform maps ``(chunk, owned)`` to
  ``(chunk, owned)``; ``owned`` marks rows as private to the executing
  chain, letting later transforms mutate in place instead of re-copying
  the row at every step.  Values are identical to the serial path; only
  the copying strategy differs.

Row-wise predicates and expressions evaluate through the compiled-closure
path (:mod:`repro.expr.compile`), whose three-valued-logic parity with the
tree-walking :class:`~repro.expr.evaluator.Evaluator` is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

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
Chunk = list[Row]
ChunkTransform = Callable[[Chunk, bool], tuple[Chunk, bool]]


@dataclass
class StreamOp:
    """One step's per-run streaming state.

    ``transform`` processes chunks; ``commit`` (optional) publishes any
    deferred side effects once the whole run finished — the engine invokes
    commits in step order so shared artifacts (e.g. the quarantine) end up
    byte-identical to a serial run regardless of scheduling.
    """

    transform: ChunkTransform
    commit: Callable[[], None] | None = None


def chunked(rows: list[Row], batch_size: int | None) -> Iterator[Chunk]:
    """Slice a row list into chunks (one chunk when unbatched)."""
    if batch_size is None or batch_size >= len(rows):
        yield rows
        return
    for start in range(0, len(rows), batch_size):
        yield rows[start : start + batch_size]


def _owned(chunk: Chunk, owned: bool) -> Chunk:
    """The chunk with rows this chain may mutate (copy at most once)."""
    if owned:
        return chunk
    return [dict(row) for row in chunk]


@dataclass
class Component:
    """Base ETL component: ``run(inputs) -> rows``."""

    #: Streamable components transform exactly one input chunk-by-chunk and
    #: may be fused into a batched chain by the workflow engine.
    streamable = False

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        raise NotImplementedError

    def open_stream(self) -> StreamOp:
        """Per-run chunk transform (streamable components only)."""
        raise ETLError(f"{type(self).__name__} does not stream")

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
    to ``quarantine``.  Both protocols read through
    :meth:`~repro.guava.source.GuavaSource.execute`, the call a
    ``Study.run`` preview makes for the same query and map: a publish
    shares the preview's plan-cache entry and, at an unchanged data
    version, its memoized rows.  Rows are fresh, so chains own them.
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

    def open_read(
        self, batch_size: int | None
    ) -> tuple[Iterator[Chunk], Callable[[], None]]:
        """The read's rows in chunks of ``batch_size`` (one if None), and
        a commit publishing its discards (staged like :class:`Clean`'s)."""
        staged = Quarantine()

        def chunks() -> Iterator[Chunk]:
            yield from chunked(self.read(staged), batch_size)

        def commit() -> None:
            self.quarantine.rows.extend(staged.rows)

        return chunks(), commit


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

    streamable = True

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse(self.condition)

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        satisfied = compile_predicate(self.condition)
        return [row for row in inputs[0] if satisfied(row)]

    def open_stream(self) -> StreamOp:
        satisfied = compile_predicate(self.condition)

        def transform(chunk: Chunk, owned: bool) -> tuple[Chunk, bool]:
            return [row for row in chunk if satisfied(row)], owned

        return StreamOp(transform)


@dataclass
class DeriveColumn(Component):
    """Extend rows with a computed column."""

    name: str
    expression: Expression

    streamable = True

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

    def open_stream(self) -> StreamOp:
        compute = compile_expression(self.expression)
        name = self.name

        def transform(chunk: Chunk, owned: bool) -> tuple[Chunk, bool]:
            chunk = _owned(chunk, owned)
            for row in chunk:
                # Evaluate before assigning: the environment must not yet
                # contain the derived column, exactly as in run().
                value = compute(row)
                row[name] = value
            return chunk, True

        return StreamOp(transform)


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

    streamable = True

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        return apply_rules(
            self.rules, list(inputs[0]), self.source_name, self.scope, self.quarantine
        )

    def open_stream(self) -> StreamOp:
        # Discards stage into a private buffer; the engine commits buffers
        # in step order so concurrent branches cannot interleave quarantine
        # rows differently from a serial run.
        staged = Quarantine()

        def transform(chunk: Chunk, owned: bool) -> tuple[Chunk, bool]:
            kept = apply_rules(
                self.rules, chunk, self.source_name, self.scope, staged
            )
            return kept, owned

        def commit() -> None:
            self.quarantine.rows.extend(staged.rows)

        return StreamOp(transform, commit)


@dataclass
class ProjectColumns(Component):
    """Keep only the named columns (missing ones become NULL)."""

    columns: tuple[str, ...]

    streamable = True

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        return [
            {column: row.get(column) for column in self.columns}
            for row in inputs[0]
        ]

    def open_stream(self) -> StreamOp:
        columns = self.columns

        def transform(chunk: Chunk, owned: bool) -> tuple[Chunk, bool]:
            return [
                {column: row.get(column) for column in columns} for row in chunk
            ], True

        return StreamOp(transform)


@dataclass
class AddConstant(Component):
    """Stamp every row with a constant column (e.g. the source name)."""

    column: str
    value: object

    streamable = True

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        out = []
        for row in inputs[0]:
            extended = dict(row)
            extended[self.column] = self.value
            out.append(extended)
        return out

    def open_stream(self) -> StreamOp:
        column, value = self.column, self.value

        def transform(chunk: Chunk, owned: bool) -> tuple[Chunk, bool]:
            chunk = _owned(chunk, owned)
            for row in chunk:
                row[column] = value
            return chunk, True

        return StreamOp(transform)


@dataclass
class UnionInputs(Component):
    """Concatenate all inputs — the contributor integration step."""

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        if not inputs:
            raise ETLError("UnionInputs needs at least one input")
        out: list[Row] = []
        for rows in inputs:
            out.extend(map(dict, rows))
        return out


@dataclass
class Load(Component):
    """Write rows into a warehouse table (created if absent), pass through."""

    db: Database
    schema: TableSchema
    replace: bool = True

    streamable = True

    def run(self, inputs: Sequence[list[Row]]) -> list[Row]:
        self.expects(1, inputs)
        rows = inputs[0] if isinstance(inputs[0], list) else list(inputs[0])
        self._begin().insert_many(self._projected(rows))
        return rows

    def open_stream(self) -> StreamOp:
        # The target table is (re)created when the stream opens — i.e. when
        # this step's chain starts executing, possibly before upstream rows
        # all exist.  Workflows where another step reads the loaded table
        # mid-run must not fuse across it; compiled studies never do.
        table = self._begin()

        def transform(chunk: Chunk, owned: bool) -> tuple[Chunk, bool]:
            table.insert_many(self._projected(chunk))
            return chunk, owned

        return StreamOp(transform)

    def _projected(self, rows: list[Row]) -> list[Row]:
        """``rows`` without the columns the target table lacks.

        ``insert_many`` copies what it stores, so the rows handed back
        downstream never alias the table's.
        """
        if all(map(self.schema.column_set.issuperset, rows)):
            return rows
        columns = self.schema.column_names
        return [{c: row.get(c) for c in columns} for row in rows]

    def _begin(self):
        if self.db.has_table(self.schema.name) and self.replace:
            self.db.drop_table(self.schema.name)
        return self.db.ensure_table(self.schema)
