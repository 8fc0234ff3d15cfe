"""Fluent query builder and a plan optimizer.

The optimizer applies safe rewrites only: select merge/pushdown, projection
pushdown with dead-column pruning, fusing ``Limit`` over ``Sort`` into a
heap top-k, and — when a database handle is supplied — lowering equality
selections over base tables onto :class:`~repro.relational.algebra.IndexLookup`
backed by the table's hash indexes.  Correctness is checked by property
tests asserting optimized, naive-streaming, and interpreted executions
agree on every database they run against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Callable, Iterator, TypeVar, cast

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
from repro.expr.memo import IdentityMemo
from repro.expr.parser import parse
from repro.relational.algebra import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    Distinct,
    ExecContext,
    IndexLookup,
    InLookup,
    Join,
    Limit,
    Pivot,
    Plan,
    Project,
    Rename,
    Scan,
    Select,
    Sort,
    TopK,
    Union,
    Unpivot,
)
from repro.relational.database import Database
from repro.relational.table import Table
from repro.relational.types import DataType

Row = dict[str, object]
T = TypeVar("T")


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

    def compute(self, **derivations: str | Expression) -> "Query":
        parsed = tuple(
            (name, parse(value) if isinstance(value, str) else value)
            for name, value in derivations.items()
        )
        return Query(Compute(self.plan, parsed))

    def rename(self, **mapping: str) -> "Query":
        """``rename(old=new)`` pairs."""
        return Query(Rename(self.plan, tuple(mapping.items())))

    def join(
        self,
        other: "Query | Plan",
        on: list[tuple[str, str]] | tuple[tuple[str, str], ...],
        how: str = "inner",
    ) -> "Query":
        right = other.plan if isinstance(other, Query) else other
        return Query(Join(self.plan, right, tuple(on), how))

    def union(self, *others: "Query | Plan") -> "Query":
        plans = [self.plan]
        plans.extend(o.plan if isinstance(o, Query) else o for o in others)
        return Query(Union(tuple(plans)))

    def distinct(self) -> "Query":
        return Query(Distinct(self.plan))

    def order_by(self, *keys: str) -> "Query":
        """Keys like ``"age"`` (ascending) or ``"-age"`` (descending)."""
        parsed = tuple(
            (key[1:], False) if key.startswith("-") else (key, True) for key in keys
        )
        return Query(Sort(self.plan, parsed))

    def limit(self, count: int) -> "Query":
        return Query(Limit(self.plan, count))

    def aggregate(
        self, group_by: list[str] | tuple[str, ...], *specs: AggregateSpec
    ) -> "Query":
        return Query(Aggregate(self.plan, tuple(group_by), tuple(specs)))

    def count(self, db: Database) -> int:
        """Execute and return the row count."""
        return len(self.execute(db))

    def execute(self, db: Database, optimized: bool = True) -> list[Row]:
        plan = optimize(self.plan, db) if optimized else self.plan
        return plan.execute(db)


def optimize(
    plan: Plan,
    db: Database | None = None,
    *,
    cache_key: str | None = None,
) -> Plan:
    """Apply safe rewrites; ``db`` unlocks schema- and index-aware rules.

    Without a database the optimizer falls back to statically derivable
    column sets, as before.  With one (``Query.execute`` always passes it),
    it can additionally lower equality filters onto hash indexes and prune
    dead columns through joins and unions.  The optimizer is deliberately
    conservative — correctness is checked by property tests asserting
    optimized and naive plans agree on every database they run against.

    With a database the result is also memoized in the database's plan
    cache under the structural plan fingerprint.  An entry is planned once
    per *shape*, not once per data version: it stays valid while
    ``Database.plan_epoch`` (table create/drop, index create/drop) is
    unchanged and no table an estimate consulted (bucket sizes choosing
    among index paths) has drifted past ``PLANNING_STALENESS_FRACTION``
    in row count, as recorded by :class:`_OptContext`.  An estimate only
    picks among equivalent plans, so an index or table change always
    replans while a plan that consulted no estimate survives every insert.
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
    key: str | None = None
    epoch = 0
    if db is not None:
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
            trace.set("plan_cache", "miss" if db is not None else "off")
            optimized = _rewrite(plan, ctx)
    if db is not None and key is not None:
        db.plan_cache_put(key, epoch, optimized, ctx.estimated.items())
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
    expressions without a slot are returned as the same objects, so their
    compiled closures stay cached.
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


def extent_driver(
    plan: Plan, column: str, db: Database
) -> tuple[str, Expression | None] | None:
    """The base table whose extent order ``plan``'s rows follow, if any.

    Follows the plan's spine (each unary operator's child, each join's
    left side) down to a base-table leaf.  Returns that table and the
    filter its rows pass at the leaf (None when unfiltered) when every
    output row derives from the rows of one ``column`` value and rows
    leave in the order their records first reach the spine: the spine
    holds only row-wise operators, pivots and aggregates keyed on
    ``column`` and joins, and each join's right side is keyed the same
    way (joined on ``column = column``) or reads no table with
    ``column``.  A new record whose leaf rows all sit past the old extent
    then adds rows after every old record's, and changes no other
    record's rows.  None for anything else (a ``Sort``, ``TopK``,
    ``Limit``, ``Union`` or ``Distinct`` on the spine, a join across
    records).
    """
    path: list[Plan] = []
    node = plan
    while not isinstance(node, (Scan, IndexLookup, InLookup)):
        if isinstance(node, Join):
            if not (
                (column, column) in node.on and _record_local(node.right, column, db)
            ) and _reads_column(node.right, column, db):
                return None
            path.append(node)
            node = node.left
        elif _keyed_on(node, column):
            path.append(node)
            node = node.children()[0]
        else:
            return None
    assert isinstance(node, (Scan, IndexLookup, InLookup))
    if not db.has_table(node.table) or not db.table(node.table).schema.has_column(
        column
    ):
        return None
    filters = (
        [_lookup_predicate(node)] if isinstance(node, (IndexLookup, InLookup)) else []
    )
    for above in reversed(path):
        if not isinstance(above, Select):
            break
        filters.append(above.predicate)
    return node.table, conjunction(filters) if filters else None


def _keyed_on(node: Plan, column: str) -> bool:
    """Does ``node`` map each record's rows to rows of that record only,
    in arrival order?"""
    if isinstance(node, (Select, Project, Compute, Coerce)):
        return True
    if isinstance(node, Rename):
        return all(column not in pair for pair in node.mapping)
    if isinstance(node, Pivot):
        return column in node.key_columns
    if isinstance(node, Aggregate):
        return column in node.group_by
    return False


def _record_local(node: Plan, column: str, db: Database) -> bool:
    """Does every row of ``node`` derive from the rows of one ``column``
    value?  (Order does not matter below a join's right side.)"""
    if isinstance(node, (Scan, IndexLookup, InLookup)):
        return True
    if isinstance(node, Join):
        return _record_local(node.left, column, db) and (
            ((column, column) in node.on and _record_local(node.right, column, db))
            or not _reads_column(node.right, column, db)
        )
    if isinstance(node, Sort) or _keyed_on(node, column):
        return _record_local(node.children()[0], column, db)
    return False


def _reads_column(plan: Plan, column: str, db: Database) -> bool:
    """Does any base table under ``plan`` have ``column``?"""
    return any(
        isinstance(node, (Scan, IndexLookup, InLookup))
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

#: The types whose fingerprint text is kept per object: frozen dataclasses
#: built from scalars, tuples and one another, so an instance's text is
#: fixed for its life.  An explicit list, not every frozen dataclass: plan
#: nodes carry payloads and closures.  :func:`memoized_fingerprint` adds a
#: type from a module this one cannot import.
_MEMOIZED_TYPES: set[type] = {
    BinaryOp,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
}
_TEXTS: IdentityMemo[str] = IdentityMemo()
#: Leaf types whose ``repr`` cannot change (enum members count too).
_FIXED_SCALARS = frozenset({type(None), bool, int, float, str})


def memoized_fingerprint(kind: type[T]) -> type[T]:
    """Class decorator: keep fingerprint texts of ``kind``'s instances.

    Only for a frozen dataclass whose fields hold scalars, tuples and
    other such objects.  An instance that holds anything else (a list, a
    date) is still walked every time.
    """
    _MEMOIZED_TYPES.add(kind)
    return kind


def _field_names(kind: type) -> tuple[str, ...] | None:
    """What ``fields(value)`` names for a ``value`` of type ``kind``."""
    if issubclass(kind, type) or not is_dataclass(kind):
        return None
    return tuple(field.name for field in fields(kind))


def _fingerprint(value: object, emit: Callable[[str], None]) -> bool:
    """Emit ``value``'s fingerprint text; True when that text is fixed.

    The text of an instance of a memoized type is kept per object (see
    :mod:`repro.expr.memo`) once it is known to be fixed: every leaf below
    it is a plain scalar or an enum member and every dataclass a memoized
    type.  So a ``Literal`` over a list, and every node above it, is walked
    on each call, and ``Literal(1)``, ``Literal(True)`` and
    ``Literal(1.0)`` keep their own texts.

    The items of a memoized value's tuple field (an ``IN`` list's items,
    a call's arguments) store no text of their own: a rebuilt definition
    hits the text of the value above them, and a new 5,000-item ``IN``
    list would otherwise store 5,000 texts and clear the memo of the kept
    ``Rule`` and ``Domain`` texts (:func:`_fingerprint_items`).
    """
    if type(value) not in _MEMOIZED_TYPES:
        return _fingerprint_fields(value, emit)
    text = _TEXTS.get(value)
    if text is not None:
        emit(text)
        return True
    parts: list[str] = []
    fixed = _fingerprint_fields(value, parts.append)
    text = "".join(parts)
    if fixed:
        _TEXTS.put(value, text)
    emit(text)
    return fixed


def _fingerprint_items(items: tuple, emit: Callable[[str], None]) -> bool:
    """:func:`_fingerprint` of a memoized value's tuple field: an item's
    kept text is used, no item's text is stored."""
    fixed = True
    emit("[")
    for item in items:
        text = _TEXTS.get(item) if type(item) in _MEMOIZED_TYPES else None
        if text is None:
            fixed &= _fingerprint_fields(item, emit)
        else:
            emit(text)
        emit(",")
    emit("]")
    return fixed


def _fingerprint_fields(value: object, emit: Callable[[str], None]) -> bool:
    """One level of the uncached walk; fields and items go back through
    :func:`_fingerprint` (a memoized value's tuple fields through
    :func:`_fingerprint_items`)."""
    kind = type(value)
    try:
        names = _FIELD_NAMES[kind]
    except KeyError:
        names = _FIELD_NAMES[kind] = _field_names(kind)
    if names is not None:
        memoized = fixed = kind in _MEMOIZED_TYPES
        emit(kind.__name__)
        emit("(")
        for name in names:
            field = getattr(value, name)
            field_kind = type(field)
            if field_kind in _FIXED_SCALARS:  # the common leaf, inline
                emit(f"{field_kind.__name__}:{field!r};")
            elif memoized and field_kind is tuple:
                fixed &= _fingerprint_items(field, emit)
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
    """Column knowledge for the rewrite pass, and the data it consumed.

    ``estimated`` is the plan-cache validity fact (see :func:`optimize`):
    table → row count for every table whose estimates chose among
    equivalent plans.
    """

    __slots__ = ("db", "trace", "_exec", "estimated")

    def __init__(self, db: Database | None):
        self.db = db
        #: The ``optimize`` span when tracing, else None (the common case).
        self.trace: Span | None = None
        self._exec = ExecContext(db) if db is not None else None
        self.estimated: dict[str, int] = {}

    def consult(self, table: Table) -> None:
        """Record that an estimate over ``table`` picked the plan."""
        self.estimated.setdefault(table.schema.name, len(table))

    def note(self, rule: str, **data: object) -> None:
        """Count one applied rewrite (and log its decision data)."""
        if self.trace is not None:
            self.trace.incr(f"rewrite.{rule}")
            if data:
                self.trace.event(rule, **data)

    def columns_of(self, plan: Plan) -> tuple[str, ...] | None:
        """Ordered output columns when derivable, else None."""
        if self._exec is not None:
            try:
                return self._exec.columns(plan)
            except Exception:
                return None
        return None

    def column_types(self, plan: Plan) -> dict[str, DataType | None] | None:
        """Output column → declared type (None when not declared), if the
        columns are derivable; types are known only for columns read from
        a base table or converted by a ``Coerce``."""
        columns = self.columns_of(plan)
        if columns is None:
            static = _static_columns(plan)
            return None if static is None else dict.fromkeys(static)
        declared = _declared_types(plan, self.db) if self.db is not None else {}
        return {column: declared.get(column) for column in columns}

    def column_set(self, plan: Plan) -> set[str] | None:
        """Output column set when derivable (statically or via the db)."""
        ordered = self.columns_of(plan)
        if ordered is not None:
            return set(ordered)
        return _static_columns(plan)


def _rewrite(plan: Plan, ctx: _OptContext) -> Plan:
    # Bottom-up.
    children = tuple(_rewrite(child, ctx) for child in plan.children())
    plan = _with_children(plan, children)

    if isinstance(plan, Select):
        return _rewrite_select(plan, ctx)
    if isinstance(plan, Project):
        return _rewrite_project(plan, ctx)
    if isinstance(plan, Limit) and isinstance(plan.child, Sort) and plan.count >= 0:
        ctx.note("topk_fusion")
        return TopK(plan.child.child, plan.child.keys, plan.count)
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
    # A child lowered to an index path was chosen bottom-up, before this
    # predicate arrived (e.g. a record-id IN probe pushed down from
    # above).  Reconstruct the combined filter and re-lower jointly so
    # the most selective access path wins.
    if isinstance(child, (IndexLookup, InLookup)):
        rebuilt = BinaryOp("AND", _lookup_predicate(child), plan.predicate)
        lowered = _lower_index_lookup(rebuilt, Scan(child.table), ctx)
        if lowered is not None:
            ctx.note("select_relower_joint")
            return lowered
        return plan
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
    # Push select below union (always safe).
    if isinstance(child, Union):
        ctx.note("select_below_union")
        pushed = tuple(
            _rewrite(Select(branch, plan.predicate), ctx) for branch in child.inputs
        )
        return Union(pushed)
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


def _equality_item(
    conjunct: Expression, columns: set[str]
) -> tuple[str, object] | None:
    """``col = literal`` (either side) over a plain existing column, or None."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    for ident, literal in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not (isinstance(ident, Identifier) and isinstance(literal, Literal)):
            continue
        if len(ident.path) != 1 or ident.name not in columns:
            continue
        value = literal.value
        # NULL never matches (stays in the residual predicate and filters
        # everything); unhashable values cannot probe a hash bucket.
        if value is None:
            continue
        try:
            hash(value)
        except TypeError:
            continue
        return (ident.name, value)
    return None


def _in_list_item(
    conjunct: Expression, columns: set[str]
) -> tuple[str, tuple[object, ...]] | None:
    """``col IN (literals)`` over a plain existing column, or None.

    NULL items are dropped from the probe tuple: in filter context a row
    either matches a non-NULL item (kept either way) or yields NULL
    (dropped either way), so the kept set is unchanged.  Negated lists
    never lower — ``NOT IN`` with a NULL item filters everything.
    """
    if not (isinstance(conjunct, InList) and not conjunct.negated):
        return None
    ident = conjunct.operand
    if not (
        isinstance(ident, Identifier)
        and len(ident.path) == 1
        and ident.name in columns
    ):
        return None
    values: list[object] = []
    for item in conjunct.items:
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
    """``Select(Scan, col = literal AND …)`` → IndexLookup (+ residual Select).

    Only fires when the database is known, the table exists, a hash index
    covers at least the equality columns, and no residual conjunct can
    raise (it would now skip the rows the probe leaves out) — otherwise the
    plan is left alone so execution cost and error behaviour stay exactly
    as written.
    """
    if ctx.db is None or not ctx.db.has_table(scan.table):
        return None
    table = ctx.db.table(scan.table)
    columns = set(table.schema.column_names)
    eq_items: list[tuple[str, object]] = []
    in_items: list[tuple[tuple[str, tuple[object, ...]], Expression]] = []
    residual: list[Expression] = []
    for conjunct in _conjuncts(predicate):
        item = _equality_item(conjunct, columns)
        if item is not None:
            eq_items.append(item)
            continue
        probe = _in_list_item(conjunct, columns)
        if probe is not None:
            in_items.append((probe, conjunct))
            continue
        residual.append(conjunct)
    # Collect every index-servable access path with its actual candidate
    # count (bucket sizes are known, so this is a measurement, not an
    # estimate), then take the most selective one.
    choices: list[tuple[int, Plan, list[Expression]]] = []
    if eq_items:
        eq_lookup = IndexLookup(scan.table, tuple(eq_items))
        count = eq_lookup.bucket_rows(table)
        if count is not None:
            rest = residual + [conjunct for _, conjunct in in_items]
            choices.append((count, eq_lookup, rest))
    for position, ((column, values), _conjunct) in enumerate(in_items):
        in_lookup = InLookup(scan.table, column, values)
        count = in_lookup.bucket_rows(table)
        if count is None:
            continue
        rest = (
            [BinaryOp("=", Identifier.of(c), Literal(v)) for c, v in eq_items]
            + residual
            + [c for index, (_, c) in enumerate(in_items) if index != position]
        )
        choices.append((count, in_lookup, rest))
    if not choices:
        return None
    count, lookup, rest = min(choices, key=lambda choice: choice[0])
    # The residual filter now meets only the probed rows: a conjunct that
    # could raise on a row the probe skips keeps the plan a filtered scan.
    types: dict[str, DataType | None] = {
        column.name: column.dtype for column in table.schema.columns
    }
    if not all(_never_raises(conjunct, types) for conjunct in rest):
        return None
    if len(choices) > 1:
        ctx.consult(table)
    ctx.note(
        "index_lowering",
        table=scan.table,
        chosen=type(lookup).__name__,
        candidate_rows=count,
        alternatives=[
            {"path": type(path).__name__, "candidate_rows": rows}
            for rows, path, _ in choices
        ],
    )
    return Select(lookup, conjunction(rest)) if rest else lookup


def _lookup_predicate(lookup: IndexLookup | InLookup) -> Expression:
    """The filter an already-lowered lookup node stands for.

    Used to undo a bottom-up lowering so its conjuncts can compete with a
    predicate pushed down later in one joint access-path choice.
    """
    if isinstance(lookup, IndexLookup):
        return conjunction(
            [
                BinaryOp("=", Identifier.of(column), Literal(value))
                for column, value in lookup.items
            ]
        )
    return InList(
        Identifier.of(lookup.column),
        tuple(Literal(value) for value in lookup.values),
    )


def _rewrite_project(plan: Project, ctx: _OptContext) -> Plan:
    child = plan.child
    col_set = set(plan.columns)

    # An identity projection (same columns, same order) is a pure copy
    # pass; dropping it cannot change rows or error behaviour.
    if ctx.columns_of(child) == plan.columns:
        ctx.note("project_identity_drop")
        return child

    # Merge stacked projections (only when the outer survives the inner's
    # validity check, so error behaviour is preserved).
    if isinstance(child, Project) and col_set <= set(child.columns):
        ctx.note("project_merge")
        return _rewrite_project(Project(child.child, plan.columns), ctx)

    # Dead-derivation pruning: drop computed columns the projection discards
    # (derivations are independent — each evaluates against the child row).
    if isinstance(child, Compute):
        kept = tuple(d for d in child.derivations if d[0] in col_set)
        if len(kept) < len(child.derivations):
            ctx.note("dead_derivation_prune")
            inner: Plan = Compute(child.child, kept) if kept else child.child
            return _rewrite_project(Project(inner, plan.columns), ctx)

    # Push below a Sort when every sort key survives the projection: stable
    # sort of projected rows by the same keys yields the same order.
    if isinstance(child, Sort) and {c for c, _ in child.keys} <= col_set:
        ctx.note("project_below_sort")
        return Sort(
            _rewrite_project(Project(child.child, plan.columns), ctx), child.keys
        )

    # Prune dead columns into both sides of a join.
    if isinstance(child, Join):
        pushed = _push_project_into_join(plan, child, ctx)
        if pushed is not None:
            return pushed

    # Push into every union branch (when branches verifiably agree, so the
    # union's column-mismatch check is not silently skipped).
    if isinstance(child, Union) and child.inputs:
        branch_cols = [ctx.column_set(branch) for branch in child.inputs]
        if all(columns is not None for columns in branch_cols):
            agreed = {frozenset(columns) for columns in branch_cols}  # type: ignore[arg-type]
            if len(agreed) == 1:
                full = next(iter(agreed))
                if col_set <= full and col_set != full:
                    ctx.note("project_into_union")
                    pushed_branches = tuple(
                        _rewrite_project(Project(branch, plan.columns), ctx)
                        for branch in child.inputs
                    )
                    return Union(pushed_branches)

    return plan


def _push_project_into_join(
    project: Project, join: Join, ctx: _OptContext
) -> Plan | None:
    left_cols = ctx.columns_of(join.left)
    right_cols = ctx.columns_of(join.right)
    if left_cols is None or right_cols is None:
        return None
    left_keys = {lk for lk, _ in join.on}
    right_keys = {rk for _, rk in join.on}
    # Keep the original plan when the join would refuse a column collision.
    if (set(left_cols) & set(right_cols)) - right_keys:
        return None
    needed = set(project.columns)
    left_keep = tuple(c for c in left_cols if c in needed or c in left_keys)
    right_keep = tuple(c for c in right_cols if c in needed or c in right_keys)
    if len(left_keep) == len(left_cols) and len(right_keep) == len(right_cols):
        return None  # nothing to prune
    produced = set(left_keep) | (set(right_keep) - right_keys)
    if not needed <= produced:
        return None  # let the original projection raise its unknown-column error
    ctx.note("project_into_join")
    new_left = (
        _rewrite_project(Project(join.left, left_keep), ctx)
        if len(left_keep) < len(left_cols)
        else join.left
    )
    new_right = (
        _rewrite_project(Project(join.right, right_keep), ctx)
        if len(right_keep) < len(right_cols)
        else join.right
    )
    return Project(
        Join(new_left, new_right, join.on, join.how), project.columns
    )


def prepare_stream_plan(
    plan: Plan, db: Database, *, cache_key: str | None = None
) -> Plan:
    """Optimize ``plan`` for repeated streaming, building missing indexes.

    Equality filters that survive optimization directly over a base table
    get a supporting hash index built (idempotent — ``create_index``
    returns the existing one), then the plan is re-optimized so the
    :class:`IndexLookup` lowering fires.  Index creation is invisible to
    query semantics, but it is a side effect on the source database;
    callers that must not build indexes (``Study.run`` previews and the
    serial ETL path) call :func:`optimize` instead.  ``cache_key`` is
    passed through to :func:`optimize`, so the settled plan is cached
    under it.
    """
    optimized = optimize(plan, db, cache_key=cache_key)
    built = False
    for node in _walk(optimized):
        # A residual select above an already-lowered lookup counts too: an
        # index on its columns lets re-optimization pick a more selective
        # access path (the bucket-size choice needs the index to exist).
        if not (
            isinstance(node, Select)
            and isinstance(node.child, (Scan, IndexLookup, InLookup))
        ):
            continue
        if not db.has_table(node.child.table):
            continue
        table = db.table(node.child.table)
        columns = set(table.schema.column_names)
        eq_columns = [
            item[0]
            for conjunct in _conjuncts(node.predicate)
            if (item := _equality_item(conjunct, columns)) is not None
        ]
        if eq_columns and table.matching_index(eq_columns) is None:
            table.create_index(tuple(eq_columns))
            built = True
        for conjunct in _conjuncts(node.predicate):
            probe = _in_list_item(conjunct, columns)
            if probe is not None and table.matching_index([probe[0]]) is None:
                table.create_index((probe[0],))
                built = True
    if built:
        optimized = optimize(plan, db, cache_key=cache_key)
    return optimized


def _walk(plan: Plan):
    yield plan
    for child in plan.children():
        yield from _walk(child)


def _static_columns(plan: Plan) -> set[str] | None:
    """Output columns when derivable without a database, else None."""
    if isinstance(plan, Project):
        return set(plan.columns)
    if isinstance(plan, Rename):
        base = _static_columns(plan.child)
        if base is None:
            return None
        mapping = dict(plan.mapping)
        return {mapping.get(column, column) for column in base}
    if isinstance(plan, (Select, Distinct, Sort, Limit, TopK)):
        return _static_columns(plan.child)
    if isinstance(plan, Compute):
        base = _static_columns(plan.child)
        if base is None:
            return None
        return base | {name for name, _ in plan.derivations}
    return None


def _declared_types(plan: Plan, db: Database) -> dict[str, DataType]:
    """The declared types of the columns ``plan`` passes on unchanged."""
    if isinstance(plan, (Scan, IndexLookup, InLookup)):
        if not db.has_table(plan.table):
            return {}
        return {
            column.name: column.dtype for column in db.table(plan.table).schema.columns
        }
    if isinstance(plan, (Select, Project, Sort, TopK, Limit, Distinct)):
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
    if isinstance(plan, Distinct):
        return Distinct(children[0])
    if isinstance(plan, Sort):
        return Sort(children[0], plan.keys)
    if isinstance(plan, TopK):
        return TopK(children[0], plan.keys, plan.count)
    if isinstance(plan, Limit):
        return Limit(children[0], plan.count)
    if isinstance(plan, Aggregate):
        return Aggregate(children[0], plan.group_by, plan.aggregates)
    if isinstance(plan, Coerce):
        return Coerce(children[0], plan.column_types)
    if isinstance(plan, Unpivot):
        return Unpivot(
            children[0],
            plan.id_columns,
            plan.value_columns,
            plan.attribute_column,
            plan.value_column,
        )
    if isinstance(plan, Pivot):
        return Pivot(
            children[0],
            plan.key_columns,
            plan.attribute_column,
            plan.value_column,
            plan.attributes,
        )
    return plan
