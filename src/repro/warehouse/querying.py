"""Select-project-join access to materialized study tables.

"This option allows for simple data retrieval because getting data from
the study schema reduces to select-project-join queries."
"""

from __future__ import annotations

from repro.errors import WarehouseError
from repro.relational.algebra import Plan, Rename, Scan
from repro.relational.query import Query
from repro.ui.form import RECORD_ID
from repro.warehouse.store import Warehouse

Row = dict[str, object]


class StudyTableQuery:
    """A fluent SPJ query over one (or a join of) warehouse tables.

    >>> StudyTableQuery(warehouse, "mat_procedure") \\
    ...     .where("Habits_Cancer = 'Heavy'") \\
    ...     .select("record_id", "Habits_Cancer") \\
    ...     .run()
    """

    def __init__(self, warehouse: Warehouse, table: str):
        if not warehouse.has_table(table):
            raise WarehouseError(f"warehouse has no table {table!r}")
        self._warehouse = warehouse
        self._query = Query.table(table)

    def where(self, condition) -> "StudyTableQuery":
        clone = self._clone()
        clone._query = self._query.where(condition)
        return clone

    def select(self, *columns: str) -> "StudyTableQuery":
        clone = self._clone()
        clone._query = self._query.select(*columns)
        return clone

    def join_entity(
        self,
        other_table: str,
        prefix: str,
        on: tuple[tuple[str, str], ...] = ((RECORD_ID, RECORD_ID), ("source", "source")),
    ) -> "StudyTableQuery":
        """Join another study table (its columns prefixed to avoid collisions).

        The default keys — record id plus source — are how study tables of
        the same entity relate; pass explicit ``on`` pairs when joining a
        child entity through its parent-link column.
        """
        if not self._warehouse.has_table(other_table):
            raise WarehouseError(f"warehouse has no table {other_table!r}")
        right_schema = self._warehouse.table(other_table).schema
        join_keys = {rk for _, rk in on}
        mapping = tuple(
            (column, f"{prefix}_{column}")
            for column in right_schema.column_names
            if column not in join_keys
        )
        right: Plan = Rename(Scan(other_table), mapping)
        renamed_on = tuple((lk, rk) for lk, rk in on)
        clone = self._clone()
        clone._query = self._query.join(Query(right), renamed_on)
        return clone

    def run(self) -> list[Row]:
        return self._query.execute(self._warehouse.db)

    def _clone(self) -> "StudyTableQuery":
        clone = object.__new__(StudyTableQuery)
        clone._warehouse = self._warehouse
        clone._query = self._query
        return clone
