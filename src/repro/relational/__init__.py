"""In-memory relational engine.

This is the substrate standing in for the contributor databases and the
warehouse DBMS: typed tables, a relational algebra with an executor, a
light plan optimizer, and a SQL renderer used to document generated ETL.
"""

from repro.relational.types import DataType
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.database import Database, database_version
from repro.relational.index import HashIndex
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
    Values,
)
from repro.relational.algebra import canonical_key
from repro.relational.cost import column_ndv, estimate_plan_rows
from repro.relational.interpret import execute_interpreted
from repro.relational.query import Query, optimize, plan_fingerprint, prepare_stream_plan
from repro.relational.sql import to_sql

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "Coerce",
    "Column",
    "Compute",
    "DataType",
    "Database",
    "Distinct",
    "ExecContext",
    "HashIndex",
    "IndexLookup",
    "InLookup",
    "Join",
    "Limit",
    "Pivot",
    "Plan",
    "Project",
    "Query",
    "Rename",
    "Scan",
    "Select",
    "Sort",
    "Table",
    "TableSchema",
    "TopK",
    "Union",
    "Unpivot",
    "Values",
    "canonical_key",
    "column_ndv",
    "estimate_plan_rows",
    "execute_interpreted",
    "database_version",
    "optimize",
    "plan_fingerprint",
    "prepare_stream_plan",
    "to_sql",
]
