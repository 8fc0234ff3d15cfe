"""The design-pattern abstraction.

A pattern transforms a level of *virtual schemas* (initially the tool's
naive schemas) into the next, more physical level.  The three directions:

* ``apply_schema``  — schema level: upstream table schemas → downstream.
* ``write``         — data level: one upstream row → downstream rows.
* ``plan``          — query level: a relational-algebra plan computing an
  upstream relation from plans over downstream relations (the "data
  transformation" column of the paper's Table 1, inverted for reading).
* ``locate``        — provenance level: map an upstream record locator to
  downstream locators, so soft deletes (Audit pattern) and corrections can
  find every physical row a screen produced.

The default implementations are identity/pass-through, so a pattern only
overrides behaviour for tables it actually rearranges.
"""

from __future__ import annotations

import abc
from typing import Callable, Mapping

from repro.relational.algebra import Plan
from repro.relational.database import Database
from repro.relational.schema import TableSchema

Row = dict[str, object]
Schemas = dict[str, TableSchema]
#: (table name, row) pairs a write emits downstream.
WriteEmit = list[tuple[str, Row]]
#: Equality locator: table → column/value pairs identifying rows.
Locator = tuple[str, dict[str, object]]
#: Provides the downstream plan for a downstream table name.
ChildPlan = Callable[[str], Plan]


class DesignPattern(abc.ABC):
    """One schema design pattern; see module docstring for the contract."""

    #: Short identifier used by the catalog and benchmark reports.
    name: str = "abstract"

    #: True when this pattern gives the source soft-delete semantics.
    provides_audit: bool = False

    def apply_schema(self, schemas: Schemas) -> Schemas:
        """Downstream schemas for the given upstream schemas.

        Must be pure: called at deploy time and whenever a chain describes
        itself.  Tables the pattern does not touch pass through unchanged.
        """
        return dict(schemas)

    def write(self, table: str, row: Mapping[str, object], schemas: Schemas) -> WriteEmit:
        """Transform one upstream row into downstream writes.

        ``schemas`` is the *upstream* schema level, for patterns that need
        column metadata (types, ordering).
        """
        return [(table, dict(row))]

    def plan(self, table: str, child: ChildPlan, schemas: Schemas) -> Plan:
        """A plan computing the upstream relation ``table``.

        ``child(name)`` returns the plan for downstream relation ``name``
        (eventually a :class:`Scan` of a physical table).
        """
        return child(table)

    def locate(self, table: str, key: dict[str, object]) -> list[Locator]:
        """Downstream locators for upstream rows matching ``key``."""
        return [(table, dict(key))]

    def write_to(
        self, db: Database, table: str, row: Mapping[str, object], schemas: Schemas
    ) -> WriteEmit:
        """:meth:`write` for a chain storing into ``db``; chains call this.

        A pattern whose write-time state belongs to one database (Lookup's
        codes) overrides it; the default ignores ``db``.
        """
        return self.write(table, row, schemas)

    def attach(self, db: Database, read: Callable[[str], list[Row]]) -> None:
        """Called when the chain deploys to ``db``.

        ``read(name)`` returns downstream relation ``name`` as stored there
        (read through the rest of the chain).  A pattern that keeps
        write-time state per database builds ``db``'s from the rows already
        stored, so a chain attached to a reopened database continues where
        the last one stopped, and one attached to an empty database starts
        empty.
        """

    def describe(self) -> str:
        """One-line description for catalogs and reports."""
        doc = (self.__doc__ or "").strip().splitlines()
        return f"{self.name}: {doc[0] if doc else ''}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
