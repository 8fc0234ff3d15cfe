"""Fluent query builder and a plan optimizer.

The optimizer applies safe rewrites only: select merge/pushdown, merging
and dropping redundant projections, and lowering equality and membership
selections over base tables onto :class:`~repro.relational.algebra.InLookup`
backed by the table's single-column hash indexes.  Correctness is checked
by property tests asserting optimized, naive-streaming, and interpreted
executions agree on every database they run against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Callable, Iterator, cast

from repro.expr.analysis import referenced_identifiers
from repro.obs.trace import Span, Tracer, current_tracer
from repro.expr.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    conjunction,
)
from repro.expr.parser import parse
from repro.relational.algebra import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    ExecContext,
    InLookup,
    Join,
    Pivot,
    Plan,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    Union,
)
from repro.relational.database import Database
from repro.relational.types import DataType

Row = dict[str, object]


@dataclass(frozen=True)
class Query:
    """Immutable fluent wrapper around a logical plan.

    >>> Query.table("visits").where("age >= 50").select("patient_id")
    """

    plan: Plan

    @classmethod
    def table(cls, name: str) -> "Query":
        return cls(Scan(name))

    def where(self, condition: str | Expression) -> "Query":
        expr = parse(condition) if isinstance(condition, str) else condition
        return Query(Select(self.plan, expr))

    def select(self, *columns: str) -> "Query":
        return Query(Project(self.plan, tuple(columns)))

    def join(
        self,
        other: "Query | Plan",
        on: list[tuple[str, str]] | tuple[tuple[str, str], ...],
        how: str = "inner",
    ) -> "Query":
        right = other.plan if isinstance(other, Query) else other
        return Query(Join(self.plan, right, tuple(on), how))

    def execute(self, db: Database, optimized: bool = True) -> list[Row]:
        plan = optimize(self.plan, db) if optimized else self.plan
        return plan.execute(db)


def optimize(
    plan: Plan,
    db: Database,
    *,
    cache_key: str | None = None,
) -> Plan:
    """Apply safe rewrites against ``db``'s schemas and indexes.

    The database gives the rewrites their column sets and declared types,
    so the optimizer can lower equality filters onto hash indexes and
    check which filters cannot raise, which the pushdowns past joins,
    computes and aggregates need.  The optimizer is deliberately
    conservative — correctness is checked by property tests asserting
    optimized and naive plans agree on every database they run against.

    The result is memoized in the database's plan cache under the
    structural plan fingerprint.  An entry is planned once per *shape*,
    not once per data version: it stays valid while
    ``Database.plan_epoch`` (table create/drop, index create/drop) is
    unchanged, so an index or table change replans and no insert does.
    Where bucket sizes chose among two index paths, that choice holds
    until the next index or table change.
    ``cache_key`` replaces the structural fingerprint with a caller-built
    key (GUAVA keys a g-tree query by its shape,
    :meth:`repro.guava.source.GuavaSource.execute`): the caller vouches
    that the key determines ``plan`` and has already probed it with
    :func:`cached_plan`, so this call plans and stores unconditionally —
    and never pays for fingerprinting the plan.

    Under an installed tracer (``repro.obs.tracing()``) the pass opens an
    ``optimize`` span counting each rewrite applied and logging the
    access-path alternatives of every index lowering.  A cache hit still
    opens the span, but with ``plan_cache="hit"`` and no ``rewrite.*``
    counters — the absence of rewrite counters is the observable proof
    that lowering was skipped.
    """
    tracer = current_tracer()
    if cache_key is None:
        key = plan_fingerprint(plan)
        cached = _cache_lookup(db, key, tracer)
        if cached is not None:
            return cached
    else:
        key = cache_key
    # Captured before planning: an index change racing the rewrite
    # pass can only make the entry stale-keyed (a harmless miss).
    epoch = db.plan_epoch
    ctx = _OptContext(db)
    if tracer is None:
        optimized = _rewrite(plan, ctx)
    else:
        with tracer.span("optimize") as trace:
            ctx.trace = trace
            trace.set("plan_cache", "miss")
            optimized = _rewrite(plan, ctx)
    db.plan_cache_put(key, epoch, optimized)
    return optimized


def cached_plan(db: Database, cache_key: str) -> Plan | None:
    """The plan ``optimize(..., cache_key=cache_key)`` stored, if still valid.

    None when absent or no longer valid.  A hit opens the same ``optimize`` span a structural hit does
    (``plan_cache="hit"``, no ``rewrite.*`` counters), so reused plans
    stay visible in traces.
    """
    return _cache_lookup(db, cache_key, current_tracer())


def _cache_lookup(db: Database, key: str, tracer: Tracer | None) -> Plan | None:
    cached = db.plan_cache_get(key, db.plan_epoch)
    if cached is None:
        return None
    if tracer is not None:
        with tracer.span("optimize") as trace:
            trace.set("plan_cache", "hit")
    return cast(Plan, cached)


def rebind_in_lists(
    plan: Plan, column: str, values: tuple[object, ...]
) -> tuple[Plan, int]:
    """Swap the probe values of every ``column IN (…)`` slot in ``plan``.

    A slot is an :class:`InLookup` on ``column`` or a non-negated
    ``column IN (literals)`` conjunct of a :class:`Select` predicate — the
    two forms a pushed-down membership filter takes after optimization.
    Returns the rebound plan and the number of slots replaced; nodes and
    expressions without a slot are returned as the same objects.
    """
    items = tuple(Literal(value) for value in values)
    count = 0

    def rebind_expr(expr: Expression) -> Expression:
        nonlocal count
        if (
            isinstance(expr, InList)
            and not expr.negated
            and isinstance(expr.operand, Identifier)
            and expr.operand.path == (column,)
            and all(isinstance(item, Literal) for item in expr.items)
        ):
            count += 1
            return InList(expr.operand, items)
        if isinstance(expr, BinaryOp) and expr.op == "AND":
            left, right = rebind_expr(expr.left), rebind_expr(expr.right)
            if left is not expr.left or right is not expr.right:
                return BinaryOp("AND", left, right)
        return expr

    def rebind(node: Plan) -> Plan:
        nonlocal count
        if isinstance(node, InLookup):
            if node.column != column:
                return node
            count += 1
            return InLookup(node.table, column, values)
        children = node.children()
        rebound = tuple(rebind(child) for child in children)
        if any(new is not old for new, old in zip(rebound, children)):
            node = _with_children(node, rebound)
        if isinstance(node, Select):
            predicate = rebind_expr(node.predicate)
            if predicate is not node.predicate:
                node = Select(node.child, predicate)
        return node

    return rebind(plan), count


def record_local(plan: Plan, column: str, db: Database) -> str | None:
    """The base table at the end of ``plan``'s left spine (each operator's
    first child, each join's left side), when every row of ``plan``
    derives from the rows of one ``column`` value; else None.

    Accepts row-wise operators, sorts, pivots and aggregates keyed on
    ``column``, and joins whose right side is record-local and joined on
    ``column = column``, or reads no table with ``column`` (a lookup).
    Refuses anything else: a ``Union``, a join across records, a rename
    of ``column``.  Row order plays no part: a record-local read's rows
    are the union of its records' rows, so the rows of the records that
    did not change, plus a read of those that did, are its rows as a
    multiset.
    """
    if isinstance(plan, (Scan, InLookup)):
        return plan.table
    if isinstance(plan, Join):
        right_ok = (
            (column, column) in plan.on and record_local(plan.right, column, db)
        ) or not _reads_column(plan.right, column, db)
        return record_local(plan.left, column, db) if right_ok else None
    if isinstance(plan, Sort) or _keyed_on(plan, column):
        return record_local(plan.children()[0], column, db)
    return None


def _keyed_on(node: Plan, column: str) -> bool:
    """Does ``node`` map each record's rows to rows of that record only?"""
    if isinstance(node, (Select, Project, Compute, Coerce)):
        return True
    if isinstance(node, Rename):
        return all(column not in pair for pair in node.mapping)
    if isinstance(node, Pivot):
        return column in node.key_columns
    if isinstance(node, Aggregate):
        return column in node.group_by
    return False


def _reads_column(plan: Plan, column: str, db: Database) -> bool:
    """Does any base table under ``plan`` have ``column``?"""
    return any(
        isinstance(node, (Scan, InLookup))
        and (
            not db.has_table(node.table)
            or db.table(node.table).schema.has_column(column)
        )
        for node in plan.walk()
    )


def plan_fingerprint(plan: Plan) -> str:
    """A structural fingerprint for plan-cache keying.

    Generic over the plan/expression dataclasses: type names plus every
    field, recursively; scalars render as ``type:repr`` so values that
    compare equal across types (``Literal(1)`` vs ``Literal(True)`` vs
    ``Literal(1.0)``) never collide — the same structural-aliasing hazard
    that makes expr/compile.py key its caches by identity.
    """
    parts: list[str] = []
    _fingerprint(plan, parts.append)
    return "".join(parts)


#: Per value type, its dataclass field names, or None when instances of the
#: type are not dataclass instances.  Keyed by type, so it holds no plans.
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}

#: Leaf types whose ``repr`` cannot change (enum members count too).
_FIXED_SCALARS = frozenset({type(None), bool, int, float, str})


def _field_names(kind: type) -> tuple[str, ...] | None:
    """What ``fields(value)`` names for a ``value`` of type ``kind``."""
    if issubclass(kind, type) or not is_dataclass(kind):
        return None
    return tuple(field.name for field in fields(kind))


def _fingerprint(value: object, emit: Callable[[str], None]) -> bool:
    """Emit ``value``'s fingerprint text; True when that text is fixed.

    The text is fixed when every leaf below ``value`` is a plain scalar or
    an enum member and every dataclass on the way is frozen, so no later
    change can alter it.  A ``Literal`` over a list, and every node above
    it, is not: callers that keep a text (a row map's key, a read's shape)
    keep only fixed ones.
    """
    kind = type(value)
    try:
        names = _FIELD_NAMES[kind]
    except KeyError:
        names = _FIELD_NAMES[kind] = _field_names(kind)
    if names is not None:
        fixed: bool = kind.__dataclass_params__.frozen  # type: ignore[attr-defined]
        emit(kind.__name__)
        emit("(")
        for name in names:
            field = getattr(value, name)
            field_kind = type(field)
            if field_kind in _FIXED_SCALARS:  # the common leaf, inline
                emit(f"{field_kind.__name__}:{field!r};")
            else:
                fixed &= _fingerprint(field, emit)
            emit(",")
        emit(")")
        return fixed
    if isinstance(value, tuple):
        fixed = True
        emit("[")
        for item in value:
            fixed &= _fingerprint(item, emit)
            emit(",")
        emit("]")
        return fixed
    emit(f"{kind.__name__}:{value!r};")
    return kind in _FIXED_SCALARS or isinstance(value, Enum)


class _OptContext:
    """Column knowledge for the rewrite pass."""

    __slots__ = ("db", "trace", "_exec")

    def __init__(self, db: Database):
        self.db = db
        #: The ``optimize`` span when tracing, else None (the common case).
        self.trace: Span | None = None
        self._exec = ExecContext(db)

    def note(self, rule: str, **data: object) -> None:
        """Count one applied rewrite (and log its decision data)."""
        if self.trace is not None:
            self.trace.incr(f"rewrite.{rule}")
            if data:
                self.trace.event(rule, **data)

    def columns_of(self, plan: Plan) -> tuple[str, ...] | None:
        """Ordered output columns when derivable, else None."""
        try:
            return self._exec.columns(plan)
        except Exception:
            return None

    def column_types(self, plan: Plan) -> dict[str, DataType | None] | None:
        """Output column → declared type (None when not declared), if the
        columns are derivable; types are known only for columns read from
        a base table or converted by a ``Coerce``."""
        columns = self.columns_of(plan)
        if columns is None:
            return None
        declared = _declared_types(plan, self.db)
        return {column: declared.get(column) for column in columns}

    def column_set(self, plan: Plan) -> set[str] | None:
        """Output column set when derivable."""
        ordered = self.columns_of(plan)
        return None if ordered is None else set(ordered)


def _rewrite(plan: Plan, ctx: _OptContext) -> Plan:
    # Bottom-up.
    children = tuple(_rewrite(child, ctx) for child in plan.children())
    plan = _with_children(plan, children)

    if isinstance(plan, Select):
        return _rewrite_select(plan, ctx)
    if isinstance(plan, Project):
        return _rewrite_project(plan, ctx)
    if isinstance(plan, Pivot):
        return _rewrite_pivot(plan, ctx)
    return plan


def _rewrite_pivot(plan: Pivot, ctx: _OptContext) -> Plan:
    # A projection feeding a pivot is dead work: the pivot reads only its
    # key/attribute/value columns and builds entirely fresh rows.  Drop the
    # projection when the columns it promises verifiably exist below (so
    # its validity check could not have fired).
    child = plan.child
    needed = set(plan.key_columns) | {plan.attribute_column, plan.value_column}
    if isinstance(child, Project) and needed <= set(child.columns):
        below = ctx.column_set(child.child)
        if below is not None and set(child.columns) <= below:
            ctx.note("pivot_project_drop")
            return Pivot(
                child.child,
                plan.key_columns,
                plan.attribute_column,
                plan.value_column,
                plan.attributes,
            )
    return plan


def _rewrite_select(plan: Select, ctx: _OptContext) -> Plan:
    child = plan.child
    # A constant-TRUE filter keeps every row; drop the whole pass.
    if isinstance(plan.predicate, Literal) and plan.predicate.value is True:
        ctx.note("constant_select_drop")
        return child
    # Merge consecutive selects into one conjunction.  ``A AND B`` also
    # evaluates the outer filter where the inner one is NULL, so the outer
    # one must not be able to raise there (unknowable without a database,
    # where selects merge as written).
    if isinstance(child, Select):
        types = ctx.column_types(child.child)
        if types is not None and not _never_raises(plan.predicate, types):
            return plan
        ctx.note("select_merge")
        merged = BinaryOp("AND", child.predicate, plan.predicate)
        return _rewrite(Select(child.child, merged), ctx)
    # Push below a projection when the predicate only reads surviving
    # columns (they exist below too, so evaluation is unchanged, and the
    # projection's own validity check still runs).
    if isinstance(child, Project):
        if referenced_identifiers(plan.predicate) <= set(child.columns):
            ctx.note("select_below_project")
            return _rewrite_project(
                Project(_rewrite(Select(child.child, plan.predicate), ctx), child.columns),
                ctx,
            )
    # Push below Coerce when the predicate reads no converted column (a
    # converted column's pre-coercion value could compare differently).
    if isinstance(child, Coerce):
        converted = {column for column, _ in child.column_types}
        if not (referenced_identifiers(plan.predicate) & converted):
            ctx.note("select_below_coerce")
            return Coerce(
                _rewrite(Select(child.child, plan.predicate), ctx),
                child.column_types,
            )
    # Push below Pivot when the predicate reads only pivot keys: every row
    # of a group shares its key values, so filtering input rows and
    # filtering folded groups keep exactly the same keys.
    if isinstance(child, Pivot):
        if referenced_identifiers(plan.predicate) <= set(child.key_columns):
            ctx.note("select_below_pivot")
            return Pivot(
                _rewrite(Select(child.child, plan.predicate), ctx),
                child.key_columns,
                child.attribute_column,
                child.value_column,
                child.attributes,
            )
    # Push below a Sort: it drops no row and never raises, and a stable
    # sort of the surviving rows keeps their relative order.
    if isinstance(child, Sort):
        ctx.note("select_below_sort")
        return Sort(_rewrite(Select(child.child, plan.predicate), ctx), child.keys)
    # Push below a Compute when the predicate reads no derived name and no
    # derivation can raise: the filter then sees the same values, and the
    # rows it removes would only have been extended without error.
    if isinstance(child, Compute):
        types = ctx.column_types(child.child)
        names = referenced_identifiers(plan.predicate)
        if (
            types is not None
            and names <= types.keys()
            and not names & {name for name, _ in child.derivations}
            and all(_never_raises(expr, types) for _, expr in child.derivations)
        ):
            ctx.note("select_below_compute")
            return Compute(
                _rewrite(Select(child.child, plan.predicate), ctx), child.derivations
            )
    # Push below an Aggregate when the predicate reads only group-by
    # columns: filtering input rows then drops whole groups, and group order
    # is first-seen order either way.  The predicate must not raise (it now
    # meets every row, not one per group), nor may an aggregate over a
    # removed group; without group keys an empty input still yields a row.
    if isinstance(child, Aggregate) and child.group_by:
        types = ctx.column_types(child.child)
        if (
            types is not None
            and referenced_identifiers(plan.predicate) <= set(child.group_by)
            and set(child.group_by) <= types.keys()
            and _never_raises(plan.predicate, types)
            and all(_aggregate_never_raises(spec, types) for spec in child.aggregates)
        ):
            ctx.note("select_below_aggregate")
            return Aggregate(
                _rewrite(Select(child.child, plan.predicate), ctx),
                child.group_by,
                child.aggregates,
            )
    # Push select into a join side when its columns come from one side.
    if isinstance(child, Join) and child.how in ("inner", "left"):
        return _push_into_join(plan.predicate, child, ctx)
    # Lower equality filters over a base table onto a hash index.
    if isinstance(child, Scan):
        lowered = _lower_index_lookup(plan.predicate, child, ctx)
        if lowered is not None:
            return lowered
    return plan


def _push_into_join(predicate: Expression, join: Join, ctx: _OptContext) -> Plan:
    """Push a filter over an inner or left join into the side(s) it reads.

    A left join emits every left row at least once with its left values,
    so a filter over left columns may always move into the left side.  An
    inner join drops unmatched rows, so a filter moves into a side only if
    it cannot raise there (it would now also meet the unmatched rows).  A
    filter over join keys named alike on both sides (``record_id =
    record_id``) that cannot raise is copied into *both* sides: matched
    rows carry canonically equal keys, on which such a filter agrees.  The
    copy keeps a record-id membership slot on each side, where
    :func:`rebind_in_lists` finds it.
    """
    names = referenced_identifiers(predicate)
    left = ctx.column_types(join.left)
    right = ctx.column_types(join.right)
    shared = {lk for lk, rk in join.on if lk == rk}
    if (
        names
        and names <= shared
        and left is not None
        and right is not None
        and names <= left.keys()
        and names <= right.keys()
        and _never_raises(predicate, left)
        and _never_raises(predicate, right)
    ):
        ctx.note("select_into_join_keys")
        return Join(
            _rewrite(Select(join.left, predicate), ctx),
            _rewrite(Select(join.right, predicate), ctx),
            join.on,
            join.how,
        )
    if (
        left is not None
        and names <= left.keys()
        and (join.how == "left" or _never_raises(predicate, left))
    ):
        ctx.note("select_into_join")
        return Join(
            _rewrite(Select(join.left, predicate), ctx),
            join.right,
            join.on,
            join.how,
        )
    if (
        join.how == "inner"
        and right is not None
        and names <= right.keys()
        and _never_raises(predicate, right)
    ):
        ctx.note("select_into_join")
        return Join(
            join.left,
            _rewrite(Select(join.right, predicate), ctx),
            join.on,
            join.how,
        )
    return Select(join, predicate)


#: Value bands within which ordering comparisons never raise
#: (``evaluator._compare``); dates always raise when ordered.
_ORDER_BANDS = {
    DataType.INTEGER: "num",
    DataType.FLOAT: "num",
    DataType.TEXT: "str",
    DataType.BOOLEAN: "bool",
}


def _order_band(expr: Expression, types: dict[str, DataType | None]) -> str | None:
    """The comparison band of an operand's non-NULL values, if known."""
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return "num"
        return "str" if isinstance(value, str) else None
    if isinstance(expr, Identifier):
        dtype = types.get(expr.name)
        return _ORDER_BANDS.get(dtype) if dtype is not None else None
    return None


def _boolean_valued(expr: Expression, types: dict[str, DataType | None]) -> bool:
    """Does ``expr`` only ever yield TRUE, FALSE or NULL (never raising)?"""
    if isinstance(expr, (IsNull, InList)):
        return True
    if isinstance(expr, BinaryOp):
        return expr.op in ("=", "!=", "<", "<=", ">", ">=", "AND", "OR")
    if isinstance(expr, UnaryOp):
        return expr.op == "NOT"
    if isinstance(expr, Literal):
        return expr.value is None or isinstance(expr.value, bool)
    if isinstance(expr, Identifier):
        return types.get(expr.name) is DataType.BOOLEAN
    if isinstance(expr, FunctionCall) and _is_iif(expr):
        return all(_boolean_valued(arg, types) for arg in expr.args[1:])
    return False


def _is_iif(expr: FunctionCall) -> bool:
    return expr.name.upper() == "IIF" and len(expr.args) == 3


def _never_raises(expr: Expression, types: dict[str, DataType | None]) -> bool:
    """Can ``expr`` evaluate without raising on every row of these columns?

    ``types`` maps every column the rows carry to its declared type (None
    when not declared).  Conservative: identifiers must name a column,
    ``=``/``!=``/``IN``/``IS NULL``/``IIF`` never raise, an ordering
    comparison is safe only between operands of one known band (declared
    types are enforced on write, and NULL compares to NULL), and logic
    operators need operands that are boolean-valued.  Anything else
    (arithmetic, LIKE, other functions) may raise.  Every accepted
    operator also agrees on canonically equal values (``1`` and ``1.0``),
    which the join-key copy and the aggregate rule rely on.
    """
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, Identifier):
        return expr.name in types
    if isinstance(expr, IsNull):
        return _never_raises(expr.operand, types)
    if isinstance(expr, InList):
        return _never_raises(expr.operand, types) and all(
            _never_raises(item, types) for item in expr.items
        )
    if isinstance(expr, UnaryOp):
        return (
            expr.op == "NOT"
            and _never_raises(expr.operand, types)
            and _boolean_valued(expr.operand, types)
        )
    if isinstance(expr, FunctionCall):
        return _is_iif(expr) and all(_never_raises(arg, types) for arg in expr.args)
    if not isinstance(expr, BinaryOp):
        return False
    if not (_never_raises(expr.left, types) and _never_raises(expr.right, types)):
        return False
    if expr.op in ("=", "!="):
        return True
    if expr.op in ("AND", "OR"):
        return _boolean_valued(expr.left, types) and _boolean_valued(expr.right, types)
    if expr.op in ("<", "<=", ">", ">="):
        left, right = _order_band(expr.left, types), _order_band(expr.right, types)
        return left is not None and right is not None and (
            left == right or "null" in (left, right)
        )
    return False


def _aggregate_never_raises(
    spec: AggregateSpec, types: dict[str, DataType | None]
) -> bool:
    """Can this aggregate finalize over any group of these rows unraised?"""
    func = spec.func.upper()
    if spec.column is None:
        return func == "COUNT"
    if spec.column not in types:
        return False
    if func in ("COUNT", "COUNT_DISTINCT", "STRING_AGG"):
        return True
    dtype = types[spec.column]
    if func in ("MIN", "MAX"):
        return dtype is not None
    if func in ("SUM", "AVG"):
        return dtype in (DataType.INTEGER, DataType.FLOAT)
    return False


def _conjuncts(expr: Expression) -> Iterator[Expression]:
    """The conjuncts of ``expr``, left to right (``expr`` itself if not an AND)."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _probe_item(
    conjunct: Expression, columns: set[str]
) -> tuple[str, tuple[object, ...]] | None:
    """``col IN (literals)`` or ``col = literal`` (either side) over a plain
    existing column, as the column and its probe values, or None.

    An equality is a one-value list.  ``col = NULL`` is None: it never
    matches, so it stays in the residual predicate and filters everything.
    NULL items are dropped from a list's probe tuple: in filter context a
    row either matches a non-NULL item (kept either way) or yields NULL
    (dropped either way), so the kept set is unchanged.  Negated lists
    never lower — ``NOT IN`` with a NULL item filters everything.
    Unhashable values cannot probe a hash bucket.
    """
    if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
        ident, literal = conjunct.left, conjunct.right
        if isinstance(ident, Literal):
            ident, literal = literal, ident
        if not isinstance(literal, Literal) or literal.value is None:
            return None
        items: tuple[Expression, ...] = (literal,)
    elif isinstance(conjunct, InList) and not conjunct.negated:
        ident, items = conjunct.operand, conjunct.items
    else:
        return None
    if not (
        isinstance(ident, Identifier)
        and len(ident.path) == 1
        and ident.name in columns
    ):
        return None
    values: list[object] = []
    for item in items:
        if not isinstance(item, Literal):
            return None
        value = item.value
        if value is None:
            continue
        try:
            hash(value)
        except TypeError:
            return None
        values.append(value)
    return (ident.name, tuple(values))


def _lower_index_lookup(
    predicate: Expression, scan: Scan, ctx: _OptContext
) -> Plan | None:
    """``Select(Scan, col = literal AND …)`` → InLookup (+ residual Select).

    Only fires when the table exists, a single-column hash index serves
    some ``col IN (literals)`` or ``col = literal`` conjunct, and no
    residual conjunct can raise (it would now skip the rows the probe
    leaves out) — otherwise the plan is left alone so execution cost and
    error behaviour stay exactly as written.
    """
    if not ctx.db.has_table(scan.table):
        return None
    table = ctx.db.table(scan.table)
    columns = set(table.schema.column_names)
    conjuncts = list(_conjuncts(predicate))
    # Every index-servable probe with its actual candidate count (bucket
    # sizes are known, so this is a measurement, not an estimate); the
    # most selective one is taken.
    choices: list[tuple[int, int, InLookup]] = []
    for position, conjunct in enumerate(conjuncts):
        probe = _probe_item(conjunct, columns)
        if probe is None:
            continue
        lookup = InLookup(scan.table, *probe)
        count = lookup.bucket_rows(table)
        if count is not None:
            choices.append((count, position, lookup))
    if not choices:
        return None
    count, chosen, lookup = min(choices, key=lambda choice: choice[0])
    rest = conjuncts[:chosen] + conjuncts[chosen + 1 :]
    # The residual filter now meets only the probed rows: a conjunct that
    # could raise on a row the probe skips keeps the plan a filtered scan.
    types: dict[str, DataType | None] = {
        column.name: column.dtype for column in table.schema.columns
    }
    if not all(_never_raises(conjunct, types) for conjunct in rest):
        return None
    ctx.note(
        "index_lowering",
        table=scan.table,
        column=lookup.column,
        candidate_rows=count,
        alternatives=[
            {"column": path.column, "candidate_rows": rows}
            for rows, _, path in choices
        ],
    )
    return Select(lookup, conjunction(rest)) if rest else lookup


def _rewrite_project(plan: Project, ctx: _OptContext) -> Plan:
    child = plan.child
    # An identity projection (same columns, same order) is a pure copy
    # pass; dropping it cannot change rows or error behaviour.
    if ctx.columns_of(child) == plan.columns:
        ctx.note("project_identity_drop")
        return child

    # Merge stacked projections (only when the outer survives the inner's
    # validity check, so error behaviour is preserved).
    if isinstance(child, Project) and set(plan.columns) <= set(child.columns):
        ctx.note("project_merge")
        return _rewrite_project(Project(child.child, plan.columns), ctx)
    return plan


def prepare_stream_plan(
    plan: Plan, db: Database, *, cache_key: str | None = None
) -> Plan:
    """Optimize ``plan`` for repeated streaming, building the indexes its
    membership probes read.

    Each ``col IN (literals)`` conjunct that survives optimization
    directly over a base table (GUAVA's pushed-down ``record_id``
    membership) gets a single-column hash index on ``col`` built, then the
    plan is re-optimized so the :class:`InLookup` lowering fires.
    Equality conjuncts get no index: only a hand-made one lowers them.
    Index creation is invisible to query semantics, but it is a side
    effect on the source database; callers that must not build indexes
    (``Study.run`` previews and the serial ETL path) call :func:`optimize`
    instead.  ``cache_key`` is passed through to :func:`optimize`, so the
    settled plan is cached under it.
    """
    optimized = optimize(plan, db, cache_key=cache_key)
    built = False
    for node in optimized.walk():
        # A membership select above an already-lowered lookup counts too:
        # a delta patch reads only when its left-spine table has the index.
        if not (isinstance(node, Select) and isinstance(node.child, (Scan, InLookup))):
            continue
        if not db.has_table(node.child.table):
            continue
        table = db.table(node.child.table)
        columns = set(table.schema.column_names)
        for conjunct in _conjuncts(node.predicate):
            if not isinstance(conjunct, InList):
                continue
            probe = _probe_item(conjunct, columns)
            if probe is not None and table.matching_index([probe[0]]) is None:
                table.create_index((probe[0],))
                built = True
    if built:
        optimized = optimize(plan, db, cache_key=cache_key)
    return optimized


def _declared_types(plan: Plan, db: Database) -> dict[str, DataType]:
    """The declared types of the columns ``plan`` passes on unchanged."""
    if isinstance(plan, (Scan, InLookup)):
        if not db.has_table(plan.table):
            return {}
        return {
            column.name: column.dtype for column in db.table(plan.table).schema.columns
        }
    if isinstance(plan, (Select, Project, Sort)):
        return _declared_types(plan.children()[0], db)
    if isinstance(plan, Rename):
        mapping = dict(plan.mapping)
        return {
            mapping.get(column, column): dtype
            for column, dtype in _declared_types(plan.child, db).items()
        }
    if isinstance(plan, Compute):
        derived = {name for name, _ in plan.derivations}
        return {
            column: dtype
            for column, dtype in _declared_types(plan.child, db).items()
            if column not in derived
        }
    if isinstance(plan, Coerce):
        types = _declared_types(plan.child, db)
        types.update(plan.column_types)
        return types
    if isinstance(plan, (Aggregate, Pivot)):
        keys = plan.group_by if isinstance(plan, Aggregate) else plan.key_columns
        below = _declared_types(plan.child, db)
        return {column: below[column] for column in keys if column in below}
    if isinstance(plan, Join):
        right_keys = {rk for _, rk in plan.on}
        types = {
            column: dtype
            for column, dtype in _declared_types(plan.right, db).items()
            if column not in right_keys
        }
        types.update(_declared_types(plan.left, db))
        return types
    return {}


def _with_children(plan: Plan, children: tuple[Plan, ...]) -> Plan:
    """Rebuild ``plan`` with replacement children (dataclass-generic)."""
    if not children:
        return plan
    if isinstance(plan, Select):
        return Select(children[0], plan.predicate)
    if isinstance(plan, Project):
        return Project(children[0], plan.columns)
    if isinstance(plan, Compute):
        return Compute(children[0], plan.derivations)
    if isinstance(plan, Rename):
        return Rename(children[0], plan.mapping)
    if isinstance(plan, Join):
        return Join(children[0], children[1], plan.on, plan.how)
    if isinstance(plan, Union):
        return Union(children)
    if isinstance(plan, Sort):
        return Sort(children[0], plan.keys)
    if isinstance(plan, Aggregate):
        return Aggregate(children[0], plan.group_by, plan.aggregates)
    if isinstance(plan, Coerce):
        return Coerce(children[0], plan.column_types)
    if isinstance(plan, Pivot):
        return Pivot(
            children[0],
            plan.key_columns,
            plan.attribute_column,
            plan.value_column,
            plan.attributes,
        )
    return plan
