"""Composing design patterns into a source's storage mapping."""

from __future__ import annotations

from collections import defaultdict
from contextlib import suppress
from typing import Mapping

from repro.errors import PatternConfigError, PatternWriteError
from repro.patterns.base import DesignPattern, Row, Schemas
from repro.relational.algebra import Plan, Scan
from repro.relational.database import Database
from repro.relational.schema import TableSchema
from repro.relational.table import CheckedBatch, Table


class PatternChain:
    """An ordered list of design patterns mapping naive ↔ physical.

    Level 0 is the tool's naive schemas; each pattern maps its level to the
    next; the last level is the physical database layout.

    * :meth:`deploy` creates the physical tables in a database.
    * :meth:`write` pushes one saved screen down through every pattern.
    * :meth:`plan_for` builds the algebra plan that reconstructs a form's
      naive relation from the physical tables — the read path GUAVA's
      query translation composes with.
    * :meth:`soft_delete` deprecates a record through the chain; a chain
      containing an Audit pattern sets the sentinel column, otherwise the
      physical rows are removed.
    """

    def __init__(self, naive_schemas: Mapping[str, TableSchema], patterns: list[DesignPattern]):
        if not naive_schemas:
            raise PatternConfigError("chain requires at least one naive schema")
        self.patterns = list(patterns)
        # Precompute schemas per level: levels[0] = naive, levels[-1] = physical.
        self.levels: list[Schemas] = [dict(naive_schemas)]
        for pattern in self.patterns:
            self.levels.append(pattern.apply_schema(self.levels[-1]))

    # -- schema ------------------------------------------------------------

    @property
    def naive_schemas(self) -> Schemas:
        return dict(self.levels[0])

    @property
    def physical_schemas(self) -> Schemas:
        return dict(self.levels[-1])

    def deploy(self, db: Database) -> None:
        """Create every physical table (idempotent per schema), then let
        each pattern rebuild its write-time state from ``db``'s rows."""
        for schema in self.physical_schemas.values():
            db.ensure_table(schema)
        self._attach(db)

    def _attach(self, db: Database) -> None:
        for level, pattern in enumerate(self.patterns):
            pattern.attach(
                db, lambda name, level=level: self._plan(level + 1, name).execute(db)
            )

    # -- write path -----------------------------------------------------------

    def write(self, db: Database, form_name: str, naive_row: Mapping[str, object]) -> int:
        """Store one saved screen; returns physical rows written.

        The screen is one batch per physical table: every table's rows are
        checked (:meth:`Table.check_batch`) before any table stores its
        own, so a screen that fails a check writes nothing.  It also leaves
        no write-time pattern state behind: the patterns reload theirs
        (Lookup's codes) from the rows stored.
        """
        if form_name not in self.levels[0]:
            raise PatternWriteError(f"chain has no naive table {form_name!r}")
        pairs: list[tuple[str, Row]] = [(form_name, dict(naive_row))]
        try:
            for pattern, schemas in zip(self.patterns, self.levels):
                write_to = pattern.write_to
                next_pairs: list[tuple[str, Row]] = []
                for table, row in pairs:
                    next_pairs += write_to(db, table, row, schemas)
                pairs = next_pairs
            batches: defaultdict[str, list[Row]] = defaultdict(list)
            for table, row in pairs:
                batches[table].append(row)
            checked: list[tuple[Table, CheckedBatch]] = []
            for table, rows in batches.items():
                target = db.table(table)
                checked.append((target, target.check_batch(rows)))
        except Exception:
            # Nothing is stored: drop what the patterns noted on the way
            # down.  A database the chain cannot read back (never deployed)
            # has no state to reload, and the write's own error is the one
            # to raise.
            with suppress(Exception):
                self._attach(db)
            raise
        for target, batch in checked:
            target.append_checked(batch)
        return len(pairs)

    def writer(self, db: Database):
        """A ``(form_name, naive_row)`` callback for data-entry sessions."""

        def _write(form_name: str, naive_row: Mapping[str, object]) -> None:
            self.write(db, form_name, naive_row)

        return _write

    # -- read path --------------------------------------------------------------

    def plan_for(self, form_name: str) -> Plan:
        """Algebra plan reconstructing the naive relation of ``form_name``."""
        if form_name not in self.levels[0]:
            raise PatternConfigError(f"chain has no naive table {form_name!r}")
        return self._plan(0, form_name)

    def _plan(self, level: int, table: str) -> Plan:
        if level == len(self.patterns):
            return Scan(table)
        pattern = self.patterns[level]
        return pattern.plan(
            table, lambda name: self._plan(level + 1, name), self.levels[level]
        )

    def read_naive(self, db: Database, form_name: str) -> list[Row]:
        """Execute the read path: the naive relation, reconstructed."""
        return self.plan_for(form_name).execute(db)

    # -- provenance / deletion ------------------------------------------------

    @property
    def provides_audit(self) -> bool:
        return any(pattern.provides_audit for pattern in self.patterns)

    def locate_physical(
        self, form_name: str, record_id: object
    ) -> list[tuple[str, dict[str, object]]]:
        """Physical locators for one naive record."""
        from repro.ui.form import RECORD_ID

        locators: list[tuple[str, dict[str, object]]] = [
            (form_name, {RECORD_ID: record_id})
        ]
        for pattern in self.patterns:
            next_locators: list[tuple[str, dict[str, object]]] = []
            for table, key in locators:
                next_locators.extend(pattern.locate(table, key))
            locators = next_locators
        return locators

    def soft_delete(self, db: Database, form_name: str, record_id: object) -> int:
        """Deprecate one record (Audit sentinel) or delete it physically.

        Each physical locator's rows are found by
        :meth:`Table.positions_where` (through an index on the locator's
        columns when the table has one, ``record_id``'s for a record
        probed before) and changed by position.
        """
        affected = 0
        audit = _audit_column(self) if self.provides_audit else None
        for table, key in self.locate_physical(form_name, record_id):
            if not db.has_table(table):
                continue
            target = db.table(table)
            positions = target.positions_where(key)
            if audit is not None and target.schema.has_column(audit):
                affected += target.update_at(positions, {audit: True})
            else:
                affected += target.delete_at(positions)
        return affected

    # -- description ---------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line summary: pattern stack and physical layout."""
        lines = [f"PatternChain ({len(self.patterns)} pattern(s)):"]
        for pattern in self.patterns:
            lines.append(f"  - {pattern.describe()}")
        lines.append("  physical tables:")
        for schema in self.physical_schemas.values():
            lines.append(f"    {schema}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        names = [pattern.name for pattern in self.patterns]
        return f"PatternChain({names})"


def _audit_column(chain: PatternChain) -> str:
    for pattern in chain.patterns:
        if pattern.provides_audit:
            return getattr(pattern, "deleted_column", "is_deleted")
    return "is_deleted"
