"""Render logical plans to SQL text.

The generated ETL workflows are documented as SQL so analysts (and this
reproduction's tests) can inspect exactly what a compiled study does —
mirroring the paper's claim that g-tree queries translate "into predefined
SQL queries and ETL components".  The renderer targets a generic SQL
dialect; it is documentation-quality output, not re-parsed by the engine.
"""

from __future__ import annotations

import re

from repro.expr.ast import Expression
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
    Scan,
    Select,
    Sort,
    Union,
    Values,
)


def to_sql(plan: Plan) -> str:
    """Render ``plan`` as a SQL SELECT statement."""
    return _render(plan, depth=0)


def _indent(depth: int) -> str:
    return "  " * depth


def _render(plan: Plan, depth: int) -> str:
    pad = _indent(depth)
    if isinstance(plan, Scan):
        return f"{pad}SELECT * FROM {plan.table}"
    if isinstance(plan, InLookup):
        # A probe whose IN items were all NULL has no values; IN (NULL)
        # keeps no row either, and is valid SQL.
        values = ", ".join(_sql_literal(value) for value in plan.values) or "NULL"
        return f"{pad}SELECT * FROM {plan.table} WHERE {plan.column} IN ({values})"
    if isinstance(plan, Values):
        rows = ", ".join(
            "(" + ", ".join(_sql_literal(v) for v in row) + ")" for row in plan.rows
        )
        columns = ", ".join(plan.columns)
        return f"{pad}SELECT * FROM (VALUES {rows}) AS v({columns})"
    if isinstance(plan, Select):
        return (
            f"{pad}SELECT * FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t\n"
            f"{pad}WHERE {_sql_expr(plan.predicate)}"
        )
    if isinstance(plan, Project):
        columns = ", ".join(plan.columns)
        return f"{pad}SELECT {columns} FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t"
    if isinstance(plan, Compute):
        derived = ", ".join(f"{_sql_expr(e)} AS {name}" for name, e in plan.derivations)
        return f"{pad}SELECT *, {derived} FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t"
    if isinstance(plan, Rename):
        renames = ", ".join(f"{old} AS {new}" for old, new in plan.mapping)
        return f"{pad}SELECT {renames or '*'} FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t"
    if isinstance(plan, Join):
        conditions = " AND ".join(f"l.{lk} = r.{rk}" for lk, rk in plan.on)
        how = "INNER JOIN" if plan.how == "inner" else "LEFT OUTER JOIN"
        return (
            f"{pad}SELECT * FROM (\n{_render(plan.left, depth + 1)}\n{pad}) AS l\n"
            f"{pad}{how} (\n{_render(plan.right, depth + 1)}\n{pad}) AS r\n"
            f"{pad}ON {conditions}"
        )
    if isinstance(plan, Union):
        parts = [f"({_render(p, depth + 1).lstrip()})" for p in plan.inputs]
        joiner = f"\n{pad}UNION ALL\n{pad}"
        return f"{pad}" + joiner.join(parts)
    if isinstance(plan, Sort):
        keys = ", ".join(f"{c} {'ASC' if asc else 'DESC'}" for c, asc in plan.keys)
        return f"{pad}SELECT * FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t ORDER BY {keys}"
    if isinstance(plan, Aggregate):
        aggs = ", ".join(
            f"{_sql_aggregate(s.func, s.column)} AS {s.alias}" for s in plan.aggregates
        )
        select_list = ", ".join(list(plan.group_by) + [aggs]) if aggs else ", ".join(plan.group_by)
        group = f" GROUP BY {', '.join(plan.group_by)}" if plan.group_by else ""
        return (
            f"{pad}SELECT {select_list} FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t{group}"
        )
    if isinstance(plan, Pivot):
        cases = ", ".join(
            f"MAX(CASE WHEN {plan.attribute_column} = {_sql_literal(a)} "
            f"THEN {plan.value_column} END) AS {_sql_identifier(a)}"
            for a in plan.attributes
        )
        keys = ", ".join(plan.key_columns)
        return (
            f"{pad}SELECT {keys}, {cases} FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t\n"
            f"{pad}GROUP BY {keys}"
        )
    if isinstance(plan, Coerce):
        casts = ", ".join(
            f"CAST({column} AS {dtype.value.upper()}) AS {column}"
            for column, dtype in plan.column_types
        )
        return f"{pad}SELECT *, {casts} FROM (\n{_render(plan.child, depth + 1)}\n{pad}) AS t"
    raise TypeError(f"cannot render plan node {type(plan).__name__}")


def _sql_aggregate(func: str, column: str | None) -> str:
    if func.upper() == "COUNT" and column is None:
        return "COUNT(*)"
    if func.upper() == "COUNT_DISTINCT":
        return f"COUNT(DISTINCT {column})"
    return f"{func.upper()}({column})"


def _sql_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


_PLAIN_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _sql_identifier(name: str) -> str:
    """``name`` as is when it is a plain identifier, else double-quoted.

    Pivot attributes are g-tree node names, which may hold any character.
    """
    if _PLAIN_IDENTIFIER.fullmatch(name):
        return name
    return '"' + name.replace('"', '""') + '"'


def _sql_expr(expr: Expression) -> str:
    """Expressions already render to SQL-compatible syntax."""
    return expr.to_source()
