"""Reference executor: the materializing, tree-walking interpreter.

This module preserves the original (pre-streaming) execution strategy as an
executable specification of plan semantics: every node materializes a full
``list[Row]``, ``Scan`` reads the table's rows as new dicts, and predicates and
derivations recurse through :class:`~repro.expr.evaluator.Evaluator` once
per row.  The streaming executor in :mod:`repro.relational.algebra` and the
optimizer's rewrites must agree with this interpreter row for row —
property tests in ``tests/test_relational`` assert that on randomized
databases, and ``benchmarks/bench_relational_core.py`` measures the
streaming/compiled/index-aware speedup against it.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.expr.evaluator import Evaluator, sql_equal
from repro.relational.algebra import (
    Aggregate,
    Coerce,
    Compute,
    InLookup,
    Join,
    Pivot,
    Plan,
    Project,
    Rename,
    Row,
    Scan,
    Select,
    Sort,
    Union,
    Values,
    _aggregate,
    _sort_key,
    canonical_key,
)
from repro.relational.database import Database

_EVALUATOR = Evaluator()


def execute_interpreted(plan: Plan, db: Database) -> list[Row]:
    """Run ``plan`` with the naive materializing interpreter."""
    if isinstance(plan, Scan):
        return db.table(plan.table).rows()
    if isinstance(plan, InLookup):
        # Semantics of the optimizer's membership probe, as a full scan.
        return [
            row
            for row in db.table(plan.table).rows()
            if any(sql_equal(row.get(plan.column), value) for value in plan.values)
        ]
    if isinstance(plan, Values):
        return [dict(zip(plan.columns, row)) for row in plan.rows]
    if isinstance(plan, Select):
        return [
            row
            for row in execute_interpreted(plan.child, db)
            if _EVALUATOR.satisfied(plan.predicate, row)
        ]
    if isinstance(plan, Project):
        rows = execute_interpreted(plan.child, db)
        available = set(plan.child.output_columns(db))
        missing = [column for column in plan.columns if column not in available]
        if missing:
            raise QueryError(f"projection references unknown column(s) {missing}")
        return [{column: row.get(column) for column in plan.columns} for row in rows]
    if isinstance(plan, Compute):
        out: list[Row] = []
        for row in execute_interpreted(plan.child, db):
            extended = dict(row)
            for name, expression in plan.derivations:
                extended[name] = _EVALUATOR.evaluate(expression, row)
            out.append(extended)
        return out
    if isinstance(plan, Rename):
        table = dict(plan.mapping)
        return [
            {table.get(column, column): value for column, value in row.items()}
            for row in execute_interpreted(plan.child, db)
        ]
    if isinstance(plan, Join):
        return _join(plan, db)
    if isinstance(plan, Union):
        return _union(plan, db)
    if isinstance(plan, Pivot):
        return _pivot(plan, db)
    if isinstance(plan, Coerce):
        out = []
        for row in execute_interpreted(plan.child, db):
            converted = dict(row)
            for column, dtype in plan.column_types:
                if column in converted:
                    converted[column] = dtype.coerce(converted[column])
            out.append(converted)
        return out
    if isinstance(plan, Aggregate):
        return _aggregate_rows(plan, db)
    if isinstance(plan, Sort):
        rows = execute_interpreted(plan.child, db)
        for column, ascending in reversed(plan.keys):
            rows.sort(key=lambda row: _sort_key(row.get(column)), reverse=not ascending)
        return rows
    raise QueryError(f"interpreter cannot execute plan node {type(plan).__name__}")


def _join(plan: Join, db: Database) -> list[Row]:
    if plan.how not in ("inner", "left"):
        raise QueryError(f"unsupported join type {plan.how!r}")
    left_rows = execute_interpreted(plan.left, db)
    right_rows = execute_interpreted(plan.right, db)
    left_cols = plan.left.output_columns(db)
    right_cols = plan.right.output_columns(db)
    right_keys = tuple(rk for _, rk in plan.on)
    overlap = (set(left_cols) & set(right_cols)) - set(right_keys)
    if overlap:
        raise QueryError(
            f"join would collide on columns {sorted(overlap)}; rename one side"
        )
    buckets: dict[tuple[object, ...], list[Row]] = {}
    for row in right_rows:
        # canonical_key keeps TRUE and 1 in distinct buckets (see algebra).
        key = tuple(canonical_key(row.get(rk)) for _, rk in plan.on)
        buckets.setdefault(key, []).append(row)
    null_right = {column: None for column in right_cols if column not in right_keys}
    out: list[Row] = []
    for row in left_rows:
        key = tuple(canonical_key(row.get(lk)) for lk, _ in plan.on)
        matches = buckets.get(key, []) if None not in key else []
        if matches:
            for match in matches:
                merged = dict(row)
                merged.update({c: v for c, v in match.items() if c not in right_keys})
                out.append(merged)
        elif plan.how == "left":
            merged = dict(row)
            merged.update(null_right)
            out.append(merged)
    return out


def _union(plan: Union, db: Database) -> list[Row]:
    if not plan.inputs:
        return []
    columns = plan.output_columns(db)
    out: list[Row] = []
    for branch in plan.inputs:
        branch_columns = set(branch.output_columns(db))
        if branch_columns != set(columns):
            raise QueryError(
                f"union inputs disagree on columns: {sorted(branch_columns)} "
                f"vs {sorted(columns)}"
            )
        for row in execute_interpreted(branch, db):
            out.append({column: row.get(column) for column in columns})
    return out


def _pivot(plan: Pivot, db: Database) -> list[Row]:
    grouped: dict[tuple[object, ...], Row] = {}
    order: list[tuple[object, ...]] = []
    for row in execute_interpreted(plan.child, db):
        key = tuple(row.get(column) for column in plan.key_columns)
        if key not in grouped:
            base: Row = {c: v for c, v in zip(plan.key_columns, key)}
            base.update({attribute: None for attribute in plan.attributes})
            grouped[key] = base
            order.append(key)
        attribute = row.get(plan.attribute_column)
        if attribute in plan.attributes:
            grouped[key][str(attribute)] = row.get(plan.value_column)
    return [grouped[key] for key in order]


def _aggregate_rows(plan: Aggregate, db: Database) -> list[Row]:
    groups: dict[tuple[object, ...], list[Row]] = {}
    order: list[tuple[object, ...]] = []
    # Canonical keys tag bools and repr containers, so output rows carry
    # each group's first-seen original values (same rule as algebra).
    representatives: dict[tuple[object, ...], Row] = {}
    for row in execute_interpreted(plan.child, db):
        key = tuple(canonical_key(row.get(column)) for column in plan.group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
            representatives[key] = {
                column: row.get(column) for column in plan.group_by
            }
        groups[key].append(row)
    out: list[Row] = []
    for key in order:
        rows = groups[key]
        result: Row = representatives[key]
        for spec in plan.aggregates:
            result[spec.alias] = _aggregate(spec, rows)
        out.append(result)
    if not out and not plan.group_by and plan.aggregates:
        out.append({spec.alias: _aggregate(spec, []) for spec in plan.aggregates})
    return out
