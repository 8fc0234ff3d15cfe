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
from repro.relational.batch import BATCH_SIZE, Batch
from repro.relational.cost import (
    column_ndv,
    column_null_fraction,
    estimate_plan_rows,
    refresh_planning_stats,
)
from repro.relational.interpret import execute_interpreted
from repro.relational.query import Query, optimize, plan_fingerprint, prepare_stream_plan
from repro.relational.sql import to_sql
from repro.relational.stats import (
    ChunkStats,
    Dictionary,
    SelectAnalysis,
    column_zone_map,
    encoded_columns,
    encoding_states,
    set_statistics_enabled,
    statistics_enabled,
    table_statistics_report,
)
from repro.relational.vectorize import Vectorized, execute_vectorized

__all__ = [
    "Aggregate",
    "AggregateSpec",
    "BATCH_SIZE",
    "Batch",
    "ChunkStats",
    "Coerce",
    "Column",
    "Compute",
    "Dictionary",
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
    "SelectAnalysis",
    "Sort",
    "Table",
    "TableSchema",
    "TopK",
    "Union",
    "Unpivot",
    "Values",
    "Vectorized",
    "canonical_key",
    "column_ndv",
    "column_null_fraction",
    "column_zone_map",
    "encoded_columns",
    "encoding_states",
    "estimate_plan_rows",
    "refresh_planning_stats",
    "execute_interpreted",
    "execute_vectorized",
    "database_version",
    "optimize",
    "plan_fingerprint",
    "prepare_stream_plan",
    "set_statistics_enabled",
    "statistics_enabled",
    "table_statistics_report",
    "to_sql",
]
