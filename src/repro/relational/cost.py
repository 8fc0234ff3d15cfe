"""Row estimates for ``explain_analyze``.

``explain_analyze`` annotates every measured operator span with the
rows this module expects (``estimated_rows``) and how far off that was
(``q_error``).  Estimates never choose a plan: index lowering ranks
access paths by their bucket sizes, which execution reads, and nothing
else consults data.

* **NDV** — distinct non-null values per column: counted over the whole
  extent when it is small, over an odd-strided sample of about
  :data:`NDV_SAMPLE_ROWS` rows otherwise.  Each estimate reports its
  source (``extent`` / ``sample``).
* **Selectivity** — per conjunct: equality is ``1 / ndv``, ``IN`` sums
  equalities over its distinct literals, ``OR`` composes as
  ``l + r - l*r``, and ranges, ``LIKE`` and ``IS NULL`` take the classic
  defaults.
* **Plan rows** — :func:`estimate_plan_rows` folds those numbers through
  the operator tree (index probes count their buckets, joins divide by
  the larger key NDV, aggregates cap at the product of group-key NDVs,
  limits truncate).

Nothing is cached: an estimate is computed when ``explain_analyze`` asks.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from repro.expr.ast import BinaryOp, Expression, Identifier, InList, IsNull, Literal
from repro.relational.algebra import (
    Aggregate,
    Distinct,
    IndexLookup,
    InLookup,
    Join,
    Limit,
    Plan,
    Scan,
    Select,
    Sort,
    TopK,
    Union,
    Unpivot,
    Values,
    canonical_key,
)
from repro.relational.query import _conjuncts

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.relational.database import Database
    from repro.relational.table import Table

#: Extents up to twice this long are counted exactly; longer ones are
#: sampled with an odd stride that yields about this many probes.
NDV_SAMPLE_ROWS = 2048

#: Classic fallback selectivities where no statistic answers.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.5
DEFAULT_NULL_FRACTION = 0.1

NDV_SOURCE_EXTENT = "extent"
NDV_SOURCE_SAMPLE = "sample"


def column_ndv(table: "Table", column: str) -> tuple[float, str] | None:
    """Estimated distinct non-null count for one column, with its source.

    Returns ``(ndv, source)``, or None when the column does not exist.
    """
    if not table.schema.has_column(column):
        return None
    length = len(table)
    stride = max(length // NDV_SAMPLE_ROWS, 1)
    if stride > 1 and stride % 2 == 0:
        stride += 1  # odd strides alias less with periodic extents
    sample = [row[column] for row in islice(table.iter_rows(), 0, None, stride)]
    distinct = len({canonical_key(v) for v in sample if v is not None})
    if stride == 1:
        return (float(max(distinct, 1)), NDV_SOURCE_EXTENT)
    sampled = len(sample)
    if distinct * 2 >= sampled:
        # Near-unique in the sample: assume uniqueness scales with the
        # extent (the key-column case the join estimate cares about).
        estimate = distinct * (length / max(sampled, 1))
    else:
        # Low cardinality saturates: most values were seen already.
        estimate = float(distinct)
    return (float(max(min(estimate, float(length)), 1.0)), NDV_SOURCE_SAMPLE)


# -- conjunct selectivity -----------------------------------------------------

#: ``literal <op> column`` reads as ``column <flipped op> literal``.
_FLIPPED_COMPARE = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _clamp(fraction: float) -> float:
    return min(max(fraction, 0.0), 1.0)


def _comparison_item(conjunct: Expression) -> tuple[str, str, object] | None:
    """``col <op> literal`` (either orientation) for =/!=/ranges, or None."""
    if not isinstance(conjunct, BinaryOp):
        return None
    op = conjunct.op
    if op not in ("=", "!=") and op not in _FLIPPED_COMPARE:
        return None
    for ident, literal, oriented in (
        (conjunct.left, conjunct.right, op),
        (conjunct.right, conjunct.left, _FLIPPED_COMPARE.get(op, op)),
    ):
        if (
            isinstance(ident, Identifier)
            and len(ident.path) == 1
            and isinstance(literal, Literal)
        ):
            return (ident.name, oriented, literal.value)
    return None


def _equality_selectivity(table: "Table | None", column: str) -> float:
    estimate = column_ndv(table, column) if table is not None else None
    if estimate is None:
        return DEFAULT_EQ_SELECTIVITY
    return 1.0 / max(estimate[0], 1.0)


def conjunct_selectivity(table: "Table | None", conjunct: Expression) -> float:
    """Estimated fraction of rows one conjunct keeps (TRUE under 3VL)."""
    if isinstance(conjunct, IsNull):
        fraction = DEFAULT_NULL_FRACTION
        return 1.0 - fraction if conjunct.negated else fraction
    if isinstance(conjunct, InList):
        operand = conjunct.operand
        if isinstance(operand, Identifier) and len(operand.path) == 1:
            eq = _equality_selectivity(table, operand.name)
        else:
            eq = DEFAULT_EQ_SELECTIVITY
        distinct_items = {
            canonical_key(item.value)
            for item in conjunct.items
            if isinstance(item, Literal) and item.value is not None
        }
        fraction = _clamp(eq * len(distinct_items))
        return _clamp(1.0 - fraction) if conjunct.negated else fraction
    item = _comparison_item(conjunct)
    if item is not None:
        column, op, value = item
        if value is None:
            return 0.0  # a comparison with NULL keeps no rows
        if op == "=":
            return _equality_selectivity(table, column)
        if op == "!=":
            return _clamp(1.0 - _equality_selectivity(table, column))
        return DEFAULT_RANGE_SELECTIVITY
    if isinstance(conjunct, BinaryOp) and conjunct.op == "LIKE":
        return DEFAULT_LIKE_SELECTIVITY
    if isinstance(conjunct, BinaryOp) and conjunct.op == "OR":
        left = conjunct_selectivity(table, conjunct.left)
        right = conjunct_selectivity(table, conjunct.right)
        return _clamp(left + right - left * right)
    return 1.0


def predicate_selectivity(table: "Table | None", predicate: Expression) -> float:
    """Estimated keep-fraction of a whole predicate (independence model)."""
    fraction = 1.0
    for conjunct in _conjuncts(predicate):
        fraction *= conjunct_selectivity(table, conjunct)
    return _clamp(fraction)


# -- per-operator row estimates -----------------------------------------------


def base_table_of(plan: Plan, db: "Database") -> "Table | None":
    """The base table whose columns a node's rows still carry, or None.

    Descends through row-preserving wrappers (Select/Sort/Limit/TopK/
    Distinct) to the scanned table; stops at anything that renames,
    projects, or synthesizes columns — estimates above those fall back to
    defaults rather than misattribute statistics.
    """
    while isinstance(plan, (Select, Sort, Limit, TopK, Distinct)):
        plan = plan.child
    if isinstance(plan, (Scan, IndexLookup, InLookup)):
        if db.has_table(plan.table):
            return db.table(plan.table)
    return None


def _key_ndv(side: Plan, columns: tuple[str, ...], db: "Database", side_rows: float) -> float:
    """Joint NDV of a join side's key columns, capped at the side's rows."""
    table = base_table_of(side, db)
    if table is None:
        return max(side_rows, 1.0)
    joint = 1.0
    known = False
    for column in columns:
        estimate = column_ndv(table, column)
        if estimate is None:
            continue
        known = True
        joint *= max(estimate[0], 1.0)
    if not known:
        return max(side_rows, 1.0)
    return max(min(joint, max(side_rows, 1.0)), 1.0)


def estimate_plan_rows(
    plan: Plan, db: "Database", memo: dict[int, float] | None = None
) -> float:
    """Estimated output rows of one operator subtree.

    Never executes the plan.  Unknown node kinds pass through their only
    child's estimate (or 0 for unknown leaves).
    """
    if memo is None:
        memo = {}
    cached = memo.get(id(plan))
    if cached is not None:
        return cached
    rows = _estimate(plan, db, memo)
    memo[id(plan)] = rows
    return rows


def _estimate(plan: Plan, db: "Database", memo: dict[int, float]) -> float:
    if isinstance(plan, Scan):
        return float(len(db.table(plan.table))) if db.has_table(plan.table) else 0.0
    if isinstance(plan, (IndexLookup, InLookup)):
        return _estimate_lookup(plan, db)
    if isinstance(plan, Values):
        return float(len(plan.rows))
    if isinstance(plan, Select):
        child = estimate_plan_rows(plan.child, db, memo)
        table = base_table_of(plan.child, db)
        return child * predicate_selectivity(table, plan.predicate)
    if isinstance(plan, Join):
        left = estimate_plan_rows(plan.left, db, memo)
        right = estimate_plan_rows(plan.right, db, memo)
        left_keys = tuple(lk for lk, _ in plan.on)
        right_keys = tuple(rk for _, rk in plan.on)
        divisor = max(
            _key_ndv(plan.left, left_keys, db, left),
            _key_ndv(plan.right, right_keys, db, right),
        )
        inner = (left * right) / divisor
        if plan.how == "left":
            return max(inner, left)
        return inner
    if isinstance(plan, Aggregate):
        child = estimate_plan_rows(plan.child, db, memo)
        if not plan.group_by:
            return 1.0
        table = base_table_of(plan.child, db)
        groups = 1.0
        for column in plan.group_by:
            estimate = column_ndv(table, column) if table is not None else None
            groups *= max(estimate[0], 1.0) if estimate is not None else max(child, 1.0)
        return max(min(groups, child), 0.0)
    if isinstance(plan, (Limit, TopK)):
        child = estimate_plan_rows(plan.child, db, memo)
        if isinstance(plan, Limit) and plan.count < 0:
            return max(child + plan.count, 0.0)
        return min(child, float(max(plan.count, 0)))
    if isinstance(plan, Union):
        return sum(estimate_plan_rows(branch, db, memo) for branch in plan.inputs)
    if isinstance(plan, Unpivot):
        child = estimate_plan_rows(plan.child, db, memo)
        return child * len(plan.value_columns)
    children = plan.children()
    if len(children) == 1:
        # Row-preserving or unknown wrappers (Project/Compute/Rename/Sort/
        # Distinct/Coerce/Pivot/...): pass the child through.
        return estimate_plan_rows(children[0], db, memo)
    if not children:
        return 0.0
    return sum(estimate_plan_rows(child, db, memo) for child in children)


def _estimate_lookup(plan: IndexLookup | InLookup, db: "Database") -> float:
    """A probe's bucket rows; the selectivity estimate when no index matches."""
    if not db.has_table(plan.table):
        return 0.0
    table = db.table(plan.table)
    rows = plan.bucket_rows(table)
    if rows is not None:
        return float(rows)
    if isinstance(plan, InLookup):
        return float(len(table)) * min(
            _equality_selectivity(table, plan.column) * len(plan.values), 1.0
        )
    fallback = float(len(table))
    for column, _value in plan.items:
        fallback *= _equality_selectivity(table, column)
    return fallback
