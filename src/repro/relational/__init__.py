"""In-memory relational engine.

This is the substrate standing in for the contributor databases and the
warehouse DBMS: typed tables, a relational algebra with an executor, a
light plan optimizer, and a SQL renderer used to document generated ETL.
"""

from repro.relational.types import DataType
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.database import Database
from repro.relational.index import HashIndex
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
    Values,
)
from repro.relational.algebra import canonical_key
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
    "ExecContext",
    "HashIndex",
    "InLookup",
    "Join",
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
    "Union",
    "Values",
    "canonical_key",
    "execute_interpreted",
    "optimize",
    "plan_fingerprint",
    "prepare_stream_plan",
    "to_sql",
]
