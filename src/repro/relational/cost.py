"""Cardinality estimation over the planning statistics.

This module turns the statistics substrate (zone maps, null counts,
dictionaries in :mod:`repro.relational.stats`) into per-operator row
estimates:

* **NDV** — distinct-value counts per column, sourced from a built
  :class:`~repro.relational.stats.Dictionary` when one exists (exact over
  the encoded extent), from a full pass when the extent is small enough
  to count outright, and from a strided sample otherwise.  Each estimate
  reports its source (``dictionary`` / ``extent`` / ``sample``) so traces
  and the CLI can qualify the number.
* **Selectivity** — Selinger-style per-conjunct fractions: equality is
  ``(1 - null_fraction) / ndv``, ranges interpolate the literal's
  position inside each chunk's zone-map band, IN sums equality
  selectivities, ``IS NULL`` reads the measured null fraction, and
  anything unprobeable falls back to the classic constants.
* **Plan rows** — :func:`estimate_plan_rows` folds those numbers through
  the operator tree (index probes count their buckets, joins divide by
  the larger key NDV, aggregates cap at the product of group-key NDVs,
  limits truncate).

Estimates never change a plan's shape: ``explain_analyze`` reports them
next to the measured rows (``estimated_rows``, ``q_error``).

Estimates are cached per table with *staleness tolerance*: an entry
built at data version V keeps serving later versions until the row count
drifts past :data:`PLANNING_STALENESS_FRACTION`, the way production
planners live off periodic ANALYZE runs rather than re-profiling on
every write; :func:`refresh_planning_stats` is the manual ANALYZE.
``set_statistics_enabled(False)`` degrades estimates to extent counts
and defaults.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable

import repro.relational.table as _table_module

from repro.expr.ast import BinaryOp, Expression, Identifier, InList, IsNull, Literal
from repro.expr.evaluator import _like
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
from repro.relational.database import PLANNING_STALENESS_FRACTION
from repro.relational.stats import (
    _comparison_item,
    _conjuncts,
    _value_band,
    column_dictionary,
    column_zone_map,
    statistics_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.relational.database import Database
    from repro.relational.table import Table

# -- stale-tolerant estimate cache --------------------------------------------

_PLANNING_CACHE: "weakref.WeakKeyDictionary[Table, dict[object, tuple[int, int, object]]]" = (
    weakref.WeakKeyDictionary()
)


def _planning_cached(table: "Table", key: object, build: Callable[[], object]) -> object:
    """Version-tolerant memo for planning *estimates* (never proofs).

    Unlike :meth:`Table.derived`, an entry here is reused across data
    versions while ``len(table)`` stays within
    :data:`PLANNING_STALENESS_FRACTION` of the row count it was built at
    — small deltas (an incremental refresh touching a handful of
    records) keep planning O(1) instead of re-profiling the extent.
    """
    per_table = _PLANNING_CACHE.get(table)
    if per_table is None:
        per_table = {}
        _PLANNING_CACHE[table] = per_table
    entry = per_table.get(key)
    if entry is not None:
        version, built_rows, value = entry
        if version == table.version or abs(len(table) - built_rows) <= (
            PLANNING_STALENESS_FRACTION * max(built_rows, 1)
        ):
            return value
    value = build()
    per_table[key] = (table.version, len(table), value)
    return value


def refresh_planning_stats(table: "Table") -> None:
    """Drop one table's cached planning estimates (a manual ANALYZE).

    The next estimate request re-profiles against current data even if
    the row count has not drifted past the staleness tolerance.
    """
    _PLANNING_CACHE.pop(table, None)


# The staleness tolerance is exactly wrong across a *restore*: a recovered
# extent can land within the row-count drift window while holding entirely
# different data (and an exactly-restored — possibly rewound — version), so
# snapshot load / WAL replay must clear these estimates unconditionally.
# Registering here keeps table.py free of an import cycle with this module.
_table_module.register_restore_listener(refresh_planning_stats)


# -- NDV estimation -----------------------------------------------------------

#: Extents up to this long are counted exactly; longer ones are sampled
#: with a stride that yields about this many probes.
NDV_SAMPLE_ROWS = 2048

#: Classic fallback selectivities when no statistic answers.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.5
DEFAULT_NULL_FRACTION = 0.1

NDV_SOURCE_DICTIONARY = "dictionary"
NDV_SOURCE_EXTENT = "extent"
NDV_SOURCE_SAMPLE = "sample"


def column_ndv(table: "Table", column: str) -> tuple[float, str] | None:
    """Estimated distinct non-null count for one column, with its source.

    Returns ``(ndv, source)`` or None when statistics are disabled or the
    column does not exist.  Cached with staleness tolerance: see
    :func:`_planning_cached`.
    """
    if not statistics_enabled() or not table.schema.has_column(column):
        return None

    def build() -> tuple[float, str]:
        dictionary = column_dictionary(table, column)
        if dictionary is not None:
            return (float(dictionary.cardinality), NDV_SOURCE_DICTIONARY)
        values = table.column_values(column)
        length = len(values)
        stride = length // NDV_SAMPLE_ROWS
        if stride <= 1:
            distinct = len({canonical_key(v) for v in values if v is not None})
            return (float(max(distinct, 1)), NDV_SOURCE_EXTENT)
        if stride % 2 == 0:
            stride += 1  # odd strides alias less with periodic extents
        sample = values[::stride]
        sampled = len(sample)
        distinct = len({canonical_key(v) for v in sample if v is not None})
        if distinct * 2 >= sampled:
            # Near-unique in the sample: assume uniqueness scales with the
            # extent (the key-column case the join estimator cares about).
            estimate = distinct * (length / max(sampled, 1))
        else:
            # Low cardinality saturates: most values were seen already.
            estimate = float(distinct)
        return (float(max(min(estimate, float(length)), 1.0)), NDV_SOURCE_SAMPLE)

    return _planning_cached(table, ("ndv", column), build)  # type: ignore[return-value]


def column_null_fraction(table: "Table", column: str) -> float | None:
    """Measured NULL fraction from the zone maps, or None without stats."""
    if not statistics_enabled():
        return None

    def build() -> float | None:
        zone = column_zone_map(table, column)
        if not zone:
            return None
        total = sum(stats.length for stats in zone)
        if total == 0:
            return 0.0
        return sum(stats.null_count for stats in zone) / total

    return _planning_cached(table, ("null_fraction", column), build)  # type: ignore[return-value]


# -- conjunct selectivity -----------------------------------------------------


def _clamp(fraction: float) -> float:
    return min(max(fraction, 0.0), 1.0)


def _equality_selectivity(table: "Table | None", column: str) -> float:
    if table is None:
        return DEFAULT_EQ_SELECTIVITY
    estimate = column_ndv(table, column)
    if estimate is None:
        return DEFAULT_EQ_SELECTIVITY
    null_fraction = column_null_fraction(table, column) or 0.0
    return _clamp((1.0 - null_fraction) / max(estimate[0], 1.0))


def _range_selectivity(table: "Table | None", column: str, op: str, value: object) -> float:
    """Zone-map interpolation of ``column <op> literal`` match fraction."""
    if value is None:
        return 0.0  # ordering vs NULL keeps no rows
    band = _value_band(value)
    if table is None or not statistics_enabled() or band is None:
        return DEFAULT_RANGE_SELECTIVITY

    def build() -> float:
        zone = column_zone_map(table, column)
        if not zone:
            return DEFAULT_RANGE_SELECTIVITY
        total = sum(stats.length for stats in zone)
        if total == 0:
            return 0.0
        matching = 0.0
        for stats in zone:
            populated = stats.length - stats.null_count
            if populated <= 0:
                continue
            if stats.band != band:
                matching += populated * DEFAULT_RANGE_SELECTIVITY
                continue
            matching += populated * _band_fraction(op, value, stats.lo, stats.hi)
        return _clamp(matching / total)

    key = ("range_sel", column, op, canonical_key(value))
    return _planning_cached(table, key, build)  # type: ignore[return-value]


def _band_fraction(op: str, value: object, lo: object, hi: object) -> float:
    """Fraction of a [lo, hi] chunk passing ``x <op> value`` (uniform model)."""
    try:
        if value <= lo:  # type: ignore[operator]
            below = 0.0
        elif value >= hi:  # type: ignore[operator]
            below = 1.0
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            below = (value - lo) / (hi - lo)  # type: ignore[operator]
        else:
            below = DEFAULT_RANGE_SELECTIVITY  # inside a non-numeric band
    except TypeError:
        return DEFAULT_RANGE_SELECTIVITY
    if op in ("<", "<="):
        return _clamp(below)
    return _clamp(1.0 - below)


def conjunct_selectivity(table: "Table | None", conjunct: Expression) -> float:
    """Estimated fraction of rows one conjunct keeps (TRUE under 3VL)."""
    if isinstance(conjunct, IsNull):
        operand = conjunct.operand
        fraction = DEFAULT_NULL_FRACTION
        if table is not None and isinstance(operand, Identifier) and len(operand.path) == 1:
            measured = column_null_fraction(table, operand.name)
            if measured is not None:
                fraction = measured
        return _clamp(1.0 - fraction) if conjunct.negated else _clamp(fraction)
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
        if op == "=":
            if value is None:
                return 0.0
            return _equality_selectivity(table, column)
        if op == "!=":
            if value is None:
                return 0.0
            null_fraction = 0.0
            if table is not None:
                null_fraction = column_null_fraction(table, column) or 0.0
            return _clamp(1.0 - null_fraction - _equality_selectivity(table, column))
        return _range_selectivity(table, column, op, value)
    if isinstance(conjunct, BinaryOp) and conjunct.op == "LIKE":
        return _like_selectivity(table, conjunct)
    if isinstance(conjunct, BinaryOp) and conjunct.op == "OR":
        left = conjunct_selectivity(table, conjunct.left)
        right = conjunct_selectivity(table, conjunct.right)
        return _clamp(left + right - left * right)
    return 1.0


def _like_selectivity(table: "Table | None", conjunct: BinaryOp) -> float:
    """LIKE keep-fraction, measured against the dictionary when one exists.

    A built dictionary holds every distinct value of the column, so
    matching the pattern against each entry turns the classic 0.5 guess
    into a measurement of the value space (uniform-frequency model).
    """
    if (
        table is None
        or not statistics_enabled()
        or not isinstance(conjunct.left, Identifier)
        or len(conjunct.left.path) != 1
        or not isinstance(conjunct.right, Literal)
        or not isinstance(conjunct.right.value, str)
    ):
        return DEFAULT_LIKE_SELECTIVITY
    column = conjunct.left.name
    pattern = conjunct.right.value

    def build() -> float:
        dictionary = column_dictionary(table, column)
        if dictionary is None:
            return DEFAULT_LIKE_SELECTIVITY
        values = [value for value in dictionary.values if value is not None]
        if not values:
            return 0.0
        matched = sum(1 for value in values if _like(str(value), pattern))
        null_fraction = column_null_fraction(table, column) or 0.0
        return _clamp((1.0 - null_fraction) * matched / len(values))

    return _planning_cached(table, ("like_sel", column, pattern), build)  # type: ignore[return-value]


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

    Pure arithmetic over cached statistics — never executes the plan.
    Unknown node kinds pass through their only child's estimate (or 0 for
    unknown leaves), so wrapper nodes from other modules (``Vectorized``)
    need no special case here.
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
        # Distinct/Coerce/Pivot/Vectorized/...): pass the child through.
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
