"""Logical plans and their streaming executor.

Plans are immutable trees of operator nodes; ``Plan.execute(db)`` runs the
tree against a :class:`~repro.relational.database.Database` and returns a
list of row dicts.  Predicates and computed columns use the shared
expression language, so the same conditions analysts write in classifiers
run here unchanged.

Execution is *streaming*: every operator implements :meth:`Plan.stream`,
yielding rows through iterators instead of materializing a list at each
node.  ``Scan`` (and the index-backed ``IndexLookup``) yield the table's
internal row dicts without copying; operators never mutate rows they
receive, and ``Plan.execute`` restores the defensive-copy contract at the
API boundary — only for plans whose output can still alias table storage
(see :meth:`Plan.shares_storage`).  Predicates and derivations are lowered
once per plan node via :mod:`repro.expr.compile` rather than tree-walked
per row; ``repro.relational.interpret`` keeps the original materializing
interpreter as the executable specification both paths are property-tested
against.

``Unpivot`` and ``Pivot`` are first-class because the paper's *Generic*
design pattern (EAV layouts) hinges on them: "Execute an un-pivot
operation, either in code or SQL if the operator exists in the DBMS".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from repro.errors import QueryError
from repro.expr.ast import Expression
from repro.expr.compile import compile_expression, compile_predicate
from repro.expr.evaluator import sql_equal
from repro.obs.trace import TreeRecorder, current_tracer
from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.types import Converter, DataType

Row = dict[str, object]


class ExecContext:
    """Per-execution memo shared across one plan tree.

    ``output_columns`` of a node is O(depth) to compute; operators that
    consult child schemas (Project, Join, Union, Distinct) would otherwise
    each trigger a full recursion, turning deep pattern chains into
    O(depth²) schema work (ablation A6).  The context memoizes columns by
    node identity so one execute computes each node's schema exactly once.

    ``recorder`` (normally None) is the observability hook: when set, the
    base :meth:`Plan.stream` meters every node's iterator into the
    recorder's span tree.  The disabled cost is one attribute check per
    operator per execution — never per row.
    """

    __slots__ = ("db", "recorder", "_columns")

    def __init__(self, db: Database, recorder: TreeRecorder | None = None):
        self.db = db
        self.recorder = recorder
        # Keyed by node identity; the entry pins the node so a recycled id()
        # of a garbage-collected plan can never alias a stale cache hit.
        self._columns: dict[int, tuple["Plan", tuple[str, ...]]] = {}

    def annotate(self, plan: "Plan", **attrs: object) -> None:
        """Record runtime gauges for a node (no-op when not tracing)."""
        if self.recorder is not None:
            self.recorder.annotate(plan, **attrs)

    def columns(self, plan: "Plan") -> tuple[str, ...]:
        """Memoized ``plan.output_columns`` against this context's database."""
        key = id(plan)
        cached = self._columns.get(key)
        if cached is not None and cached[0] is plan:
            return cached[1]
        columns = plan._columns(self)
        self._columns[key] = (plan, columns)
        return columns


@dataclass(frozen=True)
class Plan:
    """Base class for all plan nodes."""

    def children(self) -> tuple["Plan", ...]:
        return ()

    def execute(self, db: Database) -> list[Row]:
        """Run the plan against ``db`` and materialize the result.

        Under an installed tracer (``repro.obs.tracing()``) the execution
        is profiled: a span tree mirroring the plan records per-node row
        counts and wall time.
        """
        tracer = current_tracer()
        if tracer is not None:
            return self._execute_traced(db, tracer)
        rows = self.stream(ExecContext(db))
        if self.shares_storage():
            # The stream may yield dicts owned by table storage; copy at the
            # boundary so callers can mutate results freely.
            return [dict(row) for row in rows]
        return list(rows)

    def _execute_traced(self, db: Database, tracer) -> list[Row]:
        with tracer.span(f"execute:{type(self).__name__}") as root:
            recorder = TreeRecorder(
                self, root, label=trace_label, children=lambda p: p.children()
            )
            rows = self.stream(ExecContext(db, recorder))
            if self.shares_storage():
                result = [dict(row) for row in rows]
            else:
                result = list(rows)
            root.set("rows_out", len(result))
            return result

    def stream(self, ctx: ExecContext) -> Iterator[Row]:
        """Yield result rows lazily.

        Rows may alias table storage when :meth:`shares_storage` is true;
        treat streamed rows as read-only unless that method returns False.
        Dispatches to the node's :meth:`_stream`; when the context carries
        a recorder, the iterator is metered into the node's span (any
        eager setup work a node does — e.g. a join's build side — counts
        toward its span as ``setup_s``).
        """
        recorder = ctx.recorder
        if recorder is None:
            return self._stream(ctx)
        started = perf_counter()
        iterator = self._stream(ctx)
        return recorder.wrap(self, iterator, setup_s=perf_counter() - started)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        """The node's streaming implementation (see :meth:`stream`)."""
        raise NotImplementedError

    def shares_storage(self) -> bool:
        """True when streamed rows may be the backing table's own dicts."""
        return False

    def output_columns(self, db: Database) -> tuple[str, ...]:
        """Column names this node produces, in order."""
        return ExecContext(db).columns(self)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        raise NotImplementedError

    def walk(self) -> Iterable["Plan"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Scan(Plan):
    """Read a base table's full extent (zero-copy; see ``shares_storage``)."""

    table: str

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        return ctx.db.table(self.table).iter_rows()

    def shares_storage(self) -> bool:
        return True

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class IndexLookup(Plan):
    """Conjunctive equality probe on a base table, via a hash index.

    Produced by the optimizer from ``Select(Scan(t), col = literal AND …)``
    when the table has a covering :class:`~repro.relational.index.HashIndex`.
    Falls back to a filtered scan when no index matches at execution time,
    so the node is always executable; the equality post-filter keeps SQL
    semantics exact even across hash-equal keys (``1`` vs ``TRUE``).
    """

    table: str
    items: tuple[tuple[str, object], ...]

    def bucket_rows(self, table: Table) -> int | None:
        """Rows the probe returns, or None when no index matches.

        The bucket's size, or 0 when some item can never match
        (:meth:`never_matches`) — exactly the row count ``_stream``
        yields.  None when no index covers the items (``_stream`` then
        scans) or a probe value is unhashable.  Planning counts probes by
        this, and only this, so estimates and access-path choices agree
        with execution.
        """
        index = table.matching_index([column for column, _ in self.items])
        if index is None:
            return None
        if self.never_matches(table):
            return 0
        values = dict(self.items)
        try:
            return index.count(tuple(values[column] for column in index.columns))
        except TypeError:
            return None

    def never_matches(self, table: Table) -> bool:
        """True when some item SQL-equals no row of ``table``.

        A NULL probe, a probe on a column the table lacks, or a probe whose
        bool-ness differs from its column's (TRUE vs an INTEGER column, 1
        vs a BOOLEAN one): hash buckets hold such rows (``1 == True``) but
        the ``sql_equal`` check drops them all, the same rule by which
        :meth:`InLookup.probe_keys` skips a probe.
        """
        schema = table.schema
        return any(
            value is None
            or column not in schema.column_set
            or isinstance(value, bool)
            != (schema.column(column).dtype is DataType.BOOLEAN)
            for column, value in self.items
        )

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        table = ctx.db.table(self.table)
        items = self.items
        index = table.matching_index([column for column, _ in items])
        if index is None:
            ctx.annotate(self, access_path="scan_fallback")
            return (
                row
                for row in table.iter_rows()
                if all(sql_equal(row.get(column), value) for column, value in items)
            )
        if self.never_matches(table):
            ctx.annotate(
                self,
                access_path="index",
                index_columns=",".join(index.columns),
                bucket_rows=0,
            )
            return iter(())
        values = dict(items)
        key = tuple(values[column] for column in index.columns)
        positions = index.lookup(key)
        ctx.annotate(
            self,
            access_path="index",
            index_columns=",".join(index.columns),
            bucket_rows=len(positions),
        )
        candidates = table.rows_at(positions)
        # Bucket rows are Python-equal to the probe on the indexed columns,
        # table extents are coerced to their declared types on write, and
        # every probe's bool-ness matches its column's, so SQL equality
        # agrees with bucket membership: only the items the index does not
        # cover need a per-row check.
        covered = set(index.columns)
        residual = tuple(
            (column, value) for column, value in items if column not in covered
        )
        if not residual:
            return candidates
        return (
            row
            for row in candidates
            if all(sql_equal(row.get(column), value) for column, value in residual)
        )

    def shares_storage(self) -> bool:
        return True

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class InLookup(Plan):
    """Multi-probe equality lookup: ``column IN (v1, …)`` via a hash index.

    Produced by the optimizer from a ``col IN (literals)`` conjunct over a
    scanned table with a single-column hash index on ``col``; remaining
    conjuncts stay behind in a residual :class:`Select` above this node.
    Matched positions are merged and sorted, so rows stream in extent
    order — exactly the order of the filtered scan this replaces.
    """

    table: str
    column: str
    values: tuple[object, ...]

    def probe_keys(self, table: Table) -> list[tuple[object]]:
        """The index keys this lookup reads: one per distinct live probe.

        Bucket keys hash/compare Python-style; SQL equality only diverges
        on bool-vs-non-bool probes (TRUE vs 1), so those are skipped, and
        NULL probes never match.  Everything else needs no re-check
        because extents are coerced to their declared type on write.
        Distinct keys name disjoint buckets.
        """
        boolish = table.schema.column(self.column).dtype is DataType.BOOLEAN
        return list(
            dict.fromkeys(
                (value,)
                for value in self.values
                if value is not None and isinstance(value, bool) == boolish
            )
        )

    def bucket_rows(self, table: Table) -> int | None:
        """Rows the probe returns, or None when no index matches.

        The sum of :meth:`probe_keys`' bucket sizes, which is exactly the
        row count ``_stream`` yields.  None also for an unhashable probe.
        Planning counts probes by this, and only this, so estimates and
        access-path choices agree with execution.
        """
        index = table.matching_index([self.column])
        if index is None:
            return None
        try:
            return sum(index.count(key) for key in self.probe_keys(table))
        except TypeError:
            return None

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        table = ctx.db.table(self.table)
        index = table.matching_index([self.column])
        if index is None:
            ctx.annotate(self, access_path="scan_fallback")
            column, values = self.column, self.values
            return (
                row
                for row in table.iter_rows()
                if any(sql_equal(row.get(column), value) for value in values)
            )
        positions: set[int] = set()
        for key in self.probe_keys(table):
            positions.update(index.lookup(key))
        ctx.annotate(
            self,
            access_path="index",
            probe_values=len(self.values),
            bucket_rows=len(positions),
        )
        return table.rows_at(sorted(positions))

    def shares_storage(self) -> bool:
        return True

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.db.table(self.table).schema.column_names


@dataclass(frozen=True)
class Values(Plan):
    """A literal relation (used by tests and by ETL staging steps)."""

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        columns = self.columns
        return (dict(zip(columns, row)) for row in self.rows)

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Select(Plan):
    """Keep rows whose predicate evaluates to TRUE (NULL filters out)."""

    child: Plan
    predicate: Expression

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        return filter(compile_predicate(self.predicate), self.child.stream(ctx))

    def shares_storage(self) -> bool:
        return self.child.shares_storage()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class Project(Plan):
    """Keep only the named columns, in the given order."""

    child: Plan
    columns: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        available = set(ctx.columns(self.child))
        missing = [column for column in self.columns if column not in available]
        if missing:
            raise QueryError(f"projection references unknown column(s) {missing}")
        columns = self.columns

        def narrow(row: Row) -> Row:
            try:
                # Rows normally carry every schema column; direct indexing
                # beats a bound .get per column.
                return {column: row[column] for column in columns}
            except KeyError:
                return {column: row.get(column) for column in columns}

        return map(narrow, self.child.stream(ctx))

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.columns


@dataclass(frozen=True)
class Compute(Plan):
    """Extend each row with computed columns (generalized projection)."""

    child: Plan
    derivations: tuple[tuple[str, Expression], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        compiled = tuple(
            (name, compile_expression(expression))
            for name, expression in self.derivations
        )
        # Derivations all evaluate against the child row, not each other.
        def generate() -> Iterator[Row]:
            for row in self.child.stream(ctx):
                extended = dict(row)
                for name, value_of in compiled:
                    extended[name] = value_of(row)
                yield extended

        return generate()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        base = ctx.columns(self.child)
        new = tuple(name for name, _ in self.derivations if name not in base)
        return base + new


@dataclass(frozen=True)
class Rename(Plan):
    """Rename columns: mapping of old name → new name."""

    child: Plan
    mapping: tuple[tuple[str, str], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        table = dict(self.mapping)
        return (
            {table.get(column, column): value for column, value in row.items()}
            for row in self.child.stream(ctx)
        )

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        table = dict(self.mapping)
        return tuple(table.get(column, column) for column in ctx.columns(self.child))


@dataclass(frozen=True)
class Join(Plan):
    """Equi-join on column pairs.  ``how`` is ``inner`` or ``left``.

    Non-join columns of the two sides must be disjoint; collide-by-accident
    joins are a classic silent-corruption source in hand-written ETL, so we
    refuse them and force an explicit :class:`Rename`.
    """

    left: Plan
    right: Plan
    on: tuple[tuple[str, str], ...]
    how: str = "inner"

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        if self.how not in ("inner", "left"):
            raise QueryError(f"unsupported join type {self.how!r}")
        left_cols = ctx.columns(self.left)
        right_cols = ctx.columns(self.right)
        right_keys = {rk for _, rk in self.on}
        overlap = (set(left_cols) & set(right_cols)) - right_keys
        if overlap:
            raise QueryError(
                f"join would collide on columns {sorted(overlap)}; rename one side"
            )
        # Build the hash side once; payloads drop the join keys up front so
        # the probe loop is one dict copy + update per match.  Single-column
        # joins (the overwhelmingly common case) bucket on the bare value to
        # skip a per-row tuple.
        on = self.on
        null_right = {column: None for column in right_cols if column not in right_keys}
        how = self.how

        # Buckets key on canonical_key so TRUE never meets 1 across a
        # BOOLEAN/INTEGER join — the same rule as group-by and sql_equal.
        if len(on) == 1:
            lk, rk = on[0]
            buckets: dict[object, list[Row]] = {}
            for row in self.right.stream(ctx):
                key = row.get(rk)
                if key is not None:
                    payload = {c: v for c, v in row.items() if c not in right_keys}
                    buckets.setdefault(canonical_key(key), []).append(payload)
            left_stream = self.left.stream(ctx)

            def probe_single() -> Iterator[Row]:
                for row in left_stream:
                    matches = buckets.get(canonical_key(row.get(lk)))
                    if matches:
                        for payload in matches:
                            merged = dict(row)
                            merged.update(payload)
                            yield merged
                    elif how == "left":
                        merged = dict(row)
                        merged.update(null_right)
                        yield merged

            return probe_single()

        multi_buckets: dict[tuple[object, ...], list[Row]] = {}
        for row in self.right.stream(ctx):
            key = tuple(canonical_key(row.get(rk)) for _, rk in on)
            payload = {c: v for c, v in row.items() if c not in right_keys}
            multi_buckets.setdefault(key, []).append(payload)
        left_stream = self.left.stream(ctx)

        def probe() -> Iterator[Row]:
            for row in left_stream:
                key = tuple(canonical_key(row.get(lk)) for lk, _ in on)
                matches = multi_buckets.get(key) if None not in key else None
                if matches:
                    for payload in matches:
                        merged = dict(row)
                        merged.update(payload)
                        yield merged
                elif how == "left":
                    merged = dict(row)
                    merged.update(null_right)
                    yield merged

        return probe()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        right_keys = {rk for _, rk in self.on}
        right_cols = tuple(
            column
            for column in ctx.columns(self.right)
            if column not in right_keys
        )
        return ctx.columns(self.left) + right_cols


@dataclass(frozen=True)
class Union(Plan):
    """Union-all of inputs sharing the same column set.

    This is MultiClass's integration operator: "MultiClass simply unions
    together the results of ETL workflows from different contributors."
    """

    inputs: tuple[Plan, ...]

    def children(self) -> tuple[Plan, ...]:
        return self.inputs

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        if not self.inputs:
            return iter(())
        columns = ctx.columns(self)
        column_set = set(columns)
        for plan in self.inputs:
            plan_columns = set(ctx.columns(plan))
            if plan_columns != column_set:
                raise QueryError(
                    f"union inputs disagree on columns: {sorted(plan_columns)} "
                    f"vs {sorted(columns)}"
                )

        def generate() -> Iterator[Row]:
            for plan in self.inputs:
                for row in plan.stream(ctx):
                    yield {column: row.get(column) for column in columns}

        return generate()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        if not self.inputs:
            return ()
        return ctx.columns(self.inputs[0])


@dataclass(frozen=True)
class Distinct(Plan):
    """Remove duplicate rows, preserving first-seen order."""

    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        columns = ctx.columns(self.child)

        def generate() -> Iterator[Row]:
            seen: set[tuple[object, ...]] = set()
            for row in self.child.stream(ctx):
                key = tuple(canonical_key(row.get(column)) for column in columns)
                if key not in seen:
                    seen.add(key)
                    yield row

        return generate()

    def shares_storage(self) -> bool:
        return self.child.shares_storage()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class Unpivot(Plan):
    """Wide → EAV: each value column becomes an (attribute, value) row."""

    child: Plan
    id_columns: tuple[str, ...]
    value_columns: tuple[str, ...]
    attribute_column: str = "attribute"
    value_column: str = "value"

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        for row in self.child.stream(ctx):
            for column in self.value_columns:
                record: Row = {c: row.get(c) for c in self.id_columns}
                record[self.attribute_column] = column
                record[self.value_column] = row.get(column)
                yield record

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.id_columns + (self.attribute_column, self.value_column)


@dataclass(frozen=True)
class Pivot(Plan):
    """EAV → wide: rows sharing key columns fold into one row per key.

    Attributes absent for a key yield NULL; duplicate (key, attribute)
    pairs keep the *last* value, matching reporting tools that overwrite
    earlier saves.
    """

    child: Plan
    key_columns: tuple[str, ...]
    attribute_column: str
    value_column: str
    attributes: tuple[str, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        # Ordered dicts double as the insertion-order list; the attribute
        # set and the blank-row template are hoisted out of the fold loop.
        grouped: dict[object, Row] = {}
        key_columns = self.key_columns
        attribute_column, value_column = self.attribute_column, self.value_column
        wanted = set(self.attributes)
        template = dict.fromkeys(self.attributes)
        single = key_columns[0] if len(key_columns) == 1 else None
        for row in self.child.stream(ctx):
            if single is not None:
                # The overwhelmingly common single-key fold skips the tuple
                # allocation per row.
                key = row.get(single)
                base = grouped.get(key)
                if base is None:
                    base = {single: key}
                    base.update(template)
                    grouped[key] = base
            else:
                key = tuple(row.get(column) for column in key_columns)
                base = grouped.get(key)
                if base is None:
                    base = dict(zip(key_columns, key))
                    base.update(template)
                    grouped[key] = base
            attribute = row.get(attribute_column)
            # Only str values can equal a declared attribute name; the
            # isinstance guard also keeps unhashable values out of the set.
            if isinstance(attribute, str) and attribute in wanted:
                base[attribute] = row.get(value_column)
        return iter(grouped.values())

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.key_columns + self.attributes


@dataclass(frozen=True)
class Coerce(Plan):
    """Coerce named columns to declared types.

    Read paths of patterns that store values as text (Generic/EAV, Blob)
    end with a Coerce restoring the naive schema's types.
    """

    child: Plan
    column_types: tuple[tuple[str, "DataType"], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        converters = tuple(
            (column, Converter(dtype)) for column, dtype in self.column_types
        )
        # Rows that already left table storage (fresh dicts from the child)
        # can be converted in place; aliased rows still get copied.
        copy = self.child.shares_storage()
        for row in self.child.stream(ctx):
            converted = dict(row) if copy else row
            for column, coerce in converters:
                if column in converted:
                    converted[column] = coerce(converted[column])
            yield converted

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: ``func`` over ``column`` (None for COUNT(*)) as ``alias``."""

    func: str  # COUNT, COUNT_DISTINCT, SUM, AVG, MIN, MAX
    column: str | None
    alias: str


@dataclass(frozen=True)
class Aggregate(Plan):
    """Group-by aggregation."""

    child: Plan
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        group_by = self.group_by
        groups: dict[tuple[object, ...], list[Row]] = {}
        order: list[tuple[object, ...]] = []
        # Canonical keys are tagged (bools) or repr'd (containers), so output
        # rows carry each group's first-seen original values instead.
        representatives: dict[tuple[object, ...], Row] = {}
        for row in self.child.stream(ctx):
            key = tuple(canonical_key(row.get(column)) for column in group_by)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
                representatives[key] = {
                    column: row.get(column) for column in group_by
                }
            bucket.append(row)

        def generate() -> Iterator[Row]:
            for key in order:
                rows = groups[key]
                result: Row = representatives[key]
                for spec in self.aggregates:
                    result[spec.alias] = _aggregate(spec, rows)
                yield result
            if not order and not self.group_by and self.aggregates:
                # Aggregating an empty input without grouping yields one row.
                yield {spec.alias: _aggregate(spec, []) for spec in self.aggregates}

        return generate()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return self.group_by + tuple(spec.alias for spec in self.aggregates)


@dataclass(frozen=True)
class Sort(Plan):
    """Order rows by keys; each key is (column, ascending)."""

    child: Plan
    keys: tuple[tuple[str, bool], ...]

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        rows = list(self.child.stream(ctx))
        # Apply keys right-to-left so stable sort yields composite ordering.
        for column, ascending in reversed(self.keys):
            rows.sort(key=lambda row: _sort_key(row.get(column)), reverse=not ascending)
        return iter(rows)

    def shares_storage(self) -> bool:
        return self.child.shares_storage()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class TopK(Plan):
    """Fused Sort+Limit: heap-select the first ``count`` rows by ``keys``.

    Produced by the optimizer from ``Limit(Sort(child, keys), count)``.
    Uniform-direction key lists ride ``heapq.nsmallest``/``nlargest`` with
    plain tuple keys (both are documented equivalent to a stable
    ``sorted(...)[:n]``, so tie order matches :class:`Sort`'s repeated
    stable sorts); mixed ascending/descending keys fall back to the sort
    itself, truncated.
    """

    child: Plan
    keys: tuple[tuple[str, bool], ...]
    count: int

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        rows = self.child.stream(ctx)
        if self.count <= 0:
            # Nothing to select, yet the child runs to the end, as in the
            # interpreter: its errors (a SUM over text) must still surface.
            for _ in rows:
                pass
            return iter(())
        directions = {ascending for _, ascending in self.keys}
        if len(directions) <= 1:
            select = heapq.nsmallest if directions != {False} else heapq.nlargest
            if len(self.keys) == 1:
                column = self.keys[0][0]

                def single_key(row: Row) -> tuple[int, object]:
                    return _sort_key(row.get(column))

                return iter(select(self.count, rows, key=single_key))
            columns = tuple(column for column, _ in self.keys)

            def key_of(row: Row) -> tuple[tuple[int, object], ...]:
                return tuple(_sort_key(row.get(column)) for column in columns)

            return iter(select(self.count, rows, key=key_of))
        materialized = list(rows)
        for column, ascending in reversed(self.keys):
            materialized.sort(
                key=lambda row: _sort_key(row.get(column)), reverse=not ascending
            )
        return iter(materialized[: self.count])

    def shares_storage(self) -> bool:
        return self.child.shares_storage()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


@dataclass(frozen=True)
class Limit(Plan):
    """Keep the first ``count`` rows."""

    child: Plan
    count: int

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _stream(self, ctx: ExecContext) -> Iterator[Row]:
        if self.count < 0:
            # Negative counts keep Python slice semantics (drop from the end),
            # which requires the full child extent.
            rows = list(self.child.stream(ctx))
            return iter(rows[: self.count])
        return islice(self.child.stream(ctx), self.count)

    def shares_storage(self) -> bool:
        return self.child.shares_storage()

    def _columns(self, ctx: ExecContext) -> tuple[str, ...]:
        return ctx.columns(self.child)


# -- helpers -------------------------------------------------------------------


def trace_label(plan: Plan) -> str:
    """One-line span label for a plan node (type plus its key parameters)."""
    if isinstance(plan, Scan):
        return f"Scan[{plan.table}]"
    if isinstance(plan, IndexLookup):
        columns = ",".join(column for column, _ in plan.items)
        return f"IndexLookup[{plan.table}: {columns}]"
    if isinstance(plan, InLookup):
        return f"InLookup[{plan.table}.{plan.column} IN ({len(plan.values)})]"
    if isinstance(plan, Values):
        return f"Values[{len(plan.rows)} rows]"
    if isinstance(plan, Select):
        return f"Select[{plan.predicate.to_source()}]"
    if isinstance(plan, Project):
        return f"Project[{','.join(plan.columns)}]"
    if isinstance(plan, Compute):
        return f"Compute[{','.join(name for name, _ in plan.derivations)}]"
    if isinstance(plan, Rename):
        return f"Rename[{','.join(f'{old}->{new}' for old, new in plan.mapping)}]"
    if isinstance(plan, Join):
        on = ",".join(f"{lk}={rk}" for lk, rk in plan.on)
        return f"Join[{plan.how}: {on}]"
    if isinstance(plan, Union):
        return f"Union[{len(plan.inputs)} inputs]"
    if isinstance(plan, Pivot):
        return f"Pivot[{','.join(plan.key_columns)}: {len(plan.attributes)} attrs]"
    if isinstance(plan, Unpivot):
        return f"Unpivot[{','.join(plan.value_columns)}]"
    if isinstance(plan, Coerce):
        return f"Coerce[{','.join(column for column, _ in plan.column_types)}]"
    if isinstance(plan, Aggregate):
        funcs = ",".join(spec.alias for spec in plan.aggregates)
        return f"Aggregate[{','.join(plan.group_by)}: {funcs}]"
    if isinstance(plan, Sort):
        keys = ",".join(("" if asc else "-") + col for col, asc in plan.keys)
        return f"Sort[{keys}]"
    if isinstance(plan, TopK):
        keys = ",".join(("" if asc else "-") + col for col, asc in plan.keys)
        return f"TopK[{keys} limit {plan.count}]"
    if isinstance(plan, Limit):
        return f"Limit[{plan.count}]"
    return type(plan).__name__


# Unforgeable tag segregating booleans from their hash-equal integers in
# grouping/join keys; no user value can ever equal a tuple holding it.
_BOOL_TAG = object()


def canonical_key(value: object) -> object:
    """Hash/equality key for one value under SQL semantics.

    Python's ``hash(True) == hash(1)`` (and ``True == 1``) would silently
    merge a BOOLEAN column's ``TRUE`` with an INTEGER ``1`` in group-by,
    distinct, COUNT_DISTINCT, and hash-join keys — but ``sql_equal``
    distinguishes them, so the keys must too.  Booleans are tagged with a
    private sentinel; unhashable containers collapse to their ``repr``.
    Both executors (interpreter, streaming) share this one function so
    their grouping/join semantics can never diverge.
    """
    if isinstance(value, bool):
        return (_BOOL_TAG, value)
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


# Historical internal name, kept for callers predating the audit.
_hashable = canonical_key


def _sort_key(value: object) -> tuple[int, object]:
    """Total order with NULLs first and types segregated.

    ``Decimal`` sorts in the numeric band: Python compares Decimal with
    int/float natively, and stringifying it (the old fallback) would have
    ordered ``Decimal("9")`` after ``Decimal("10")``.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float, Decimal)):
        return (2, value)
    return (3, str(value))




def _aggregate(spec: AggregateSpec, rows: Sequence[Row]) -> object:
    func = spec.func.upper()
    if func == "COUNT" and spec.column is None:
        return len(rows)
    if spec.column is None:
        raise QueryError(f"{func} requires a column")
    column = spec.column
    values = [v for row in rows if (v := row.get(column)) is not None]
    if func == "COUNT":
        return len(values)
    if func == "COUNT_DISTINCT":
        return len({canonical_key(value) for value in values})
    if func == "STRING_AGG":
        # Joins in input row order; callers sort upstream for canonical order.
        return ";".join(str(value) for value in values) if values else None
    if not values:
        return None
    if func == "SUM":
        return sum(values)  # type: ignore[arg-type]
    if func == "AVG":
        return sum(values) / len(values)  # type: ignore[arg-type]
    if func == "MIN":
        return min(values)  # type: ignore[type-var]
    if func == "MAX":
        return max(values)  # type: ignore[type-var]
    raise QueryError(f"unknown aggregate function {spec.func!r}")
