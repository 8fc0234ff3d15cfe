"""Materialization strategies for study schemas (paper §4.2).

Figure 7 shows the *fully-materialized* study schema: one table per entity
(per entity classifier), one column per classifier.  "If the
classifiers/domains ratio is high, then a comprehensive materialized study
schema may be too large to manage.  Alternatives include materializing
only often-used classifiers or determining relationships between
classifiers" — the three strategies below.

A job is a row map.  Each source's stored columns are one study row map
(:func:`~repro.multiclass.study.entity_row_map`, classifier names as
columns) read through :meth:`~repro.guava.source.GuavaSource.execute`, so
a materialized row is classified exactly as a study row is, inside the
memoized g-tree read: a full build at an unchanged data version is a memo
hit, one after appends is a patch, and a refresh is a record-scoped read
through the same map.  A selective strategy's cold columns are a second
map's read.

All strategies share one contract:

* :meth:`~MaterializationStrategy.build` — populate warehouse tables from
  the sources; ``build(incremental=True)`` refreshes only records whose
  source rows changed since the last build (falling back to a full
  rebuild whenever the snapshot lineage cannot vouch for the delta);
* :meth:`~MaterializationStrategy.fetch` — rows of (record_id, source,
  requested classifier columns), recomputing whatever was not stored;
* :meth:`~MaterializationStrategy.storage_cells` — the storage footprint.

Incremental refresh contract: after ``build(incremental=True)`` the table
holds exactly the rows a full rebuild would produce, but row *order* is
unspecified (refreshed records re-enter at the end of the extent).
Consumers that care about order must sort on (record_id, source).
"""

from __future__ import annotations

import abc
import hashlib
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import MaterializationError
from repro.obs.trace import NULL_SPAN, Span, span as trace_span
from repro.etl.compile import domain_data_type
from repro.expr.ast import Expression
from repro.expr.compile import compile_expression
from repro.expr.parser import parse
from repro.guava.query import GTreeQuery
from repro.guava.source import GuavaSource
from repro.multiclass.classifier import Classifier, EntityClassifier
from repro.multiclass.study import EntityRowMap, entity_row_map
from repro.multiclass.study_schema import StudySchema
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.ui.form import RECORD_ID
from repro.warehouse.store import Warehouse

Row = dict[str, object]

#: Lineage docs record which data version their source versions are: the
#: chain-table versions of :meth:`GuavaSource.data_version`.  Lineage
#: without it was written when sources versioned the whole database, and
#: those numbers cannot be compared with today's, so it forces a rebuild.
LINEAGE_VERSIONS = "chain_tables"


@dataclass
class MaterializationJob:
    """What to materialize: one entity, its sources, and its classifiers.

    ``entity_classifiers`` maps source name → the entity classifier that
    identifies the entity's records in that source; ``classifiers`` are
    the candidate columns (every classifier targeting the entity).  The
    job holds frozen copies of them (see
    :meth:`~repro.multiclass.classifier.Freezable.frozen`), so over a
    frozen schema it keeps each row map it builds for its life.
    """

    schema: StudySchema
    entity: str
    sources: list[GuavaSource]
    entity_classifiers: Mapping[str, EntityClassifier]
    classifiers: list[Classifier]

    def __post_init__(self) -> None:
        for source in self.sources:
            if source.name not in self.entity_classifiers:
                raise MaterializationError(
                    f"no entity classifier for source {source.name!r}"
                )
        names = [classifier.name for classifier in self.classifiers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise MaterializationError(
                f"duplicate classifier names {sorted(duplicates)}"
            )
        for classifier in self.classifiers:
            if classifier.target_entity != self.entity:
                raise MaterializationError(
                    f"classifier {classifier.name!r} targets "
                    f"{classifier.target_entity!r}, not {self.entity!r}"
                )
        self.classifiers = [classifier.frozen() for classifier in self.classifiers]
        self._by_name = {c.name: c for c in self.classifiers}
        self._row_maps: dict[tuple[str, tuple[str, ...]], EntityRowMap] = {}

    def classifier(self, name: str) -> Classifier:
        try:
            return self._by_name[name]
        except KeyError:
            raise MaterializationError(f"job has no classifier {name!r}") from None

    def column_type(self, classifier: Classifier) -> DataType:
        domain = self.schema.domain_of(*classifier.target)
        return domain_data_type(domain)

    def table_name(self) -> str:
        return f"mat_{self.entity}".lower()

    def row_map(
        self, source: GuavaSource, classifiers: Iterable[Classifier]
    ) -> EntityRowMap:
        """The study row map with one column per classifier, named after
        it (Figure 7; names interned, as a study's columns are).

        Kept per (source, column names) when the classifiers are the job's
        own and the schema is frozen, since then nothing the map reads can
        change; a job over a schema copy builds its map on every call, so
        a changed domain shows in the next lineage fingerprint.
        """
        classifiers = list(classifiers)
        key = (source.name, tuple(c.name for c in classifiers))
        own = all(self._by_name.get(c.name) is c for c in classifiers)
        if own:
            kept = self._row_maps.get(key)
            if kept is not None:
                return kept
        row_map = entity_row_map(
            source.name,
            [
                (sys.intern(c.name), c, self.schema.domain_of(*c.target))
                for c in classifiers
            ],
        )
        if own and self.schema.frozen and row_map.fixed:
            self._row_maps[key] = row_map
        return row_map

    def read(
        self,
        source: GuavaSource,
        classifiers: Iterable[Classifier],
        record_ids: set[int] | None = None,
    ) -> list[Row]:
        """The source's qualifying records as rows of ``record_id``,
        ``source`` and one column per classifier.

        A full read goes through the source's result memo under the map's
        key, so it is a hit at an unchanged data version and a patch after
        appends.  ``record_ids`` restricts it to those logical records (the
        delta path of incremental refresh).
        """
        ec = self.entity_classifiers[source.name]
        query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
        return source.execute(
            query, record_ids=record_ids, row_map=self.row_map(source, classifiers)
        )


class MaterializationStrategy(abc.ABC):
    """Shared contract; see module docstring."""

    def __init__(self, job: MaterializationJob, warehouse: Warehouse):
        self.job = job
        self.warehouse = warehouse
        self._built = False

    def build(self, incremental: bool = False) -> None:
        """Populate warehouse tables.

        ``incremental=True`` refreshes only records whose source rows
        changed since the lineage recorded by the previous build; when no
        trustworthy lineage exists (first build, changed definitions,
        untracked source mutations) it silently falls back to a full
        rebuild.  Under ``repro.obs.tracing()`` the build records a
        ``materialize.build`` span with the incremental-vs-full decision,
        the lineage-trust failure that forced any fallback, and how many
        rows were (re)extracted.
        """
        with trace_span(
            "materialize.build",
            table=self.job.table_name(),
            strategy=type(self).__name__,
            requested="incremental" if incremental else "full",
        ) as build_span:
            if incremental:
                if self._incremental_build(build_span):
                    build_span.set("decision", "incremental")
                    return
                build_span.set("decision", "full_fallback")
            else:
                build_span.set("decision", "full")
            self._full_build(build_span)

    @abc.abstractmethod
    def fetch(self, classifier_names: list[str]) -> list[Row]:
        """Rows of record_id, source, and the requested classifier columns."""

    @abc.abstractmethod
    def materialized_tables(self) -> list[str]:
        """Warehouse tables this strategy owns."""

    def storage_cells(self) -> int:
        return self.warehouse.storage_cells(self.materialized_tables())

    def adopt_existing(self) -> bool:
        """Adopt a previously-built table (e.g. after a durable reopen).

        True when the warehouse already holds this strategy's table with
        lineage whose definition fingerprint matches the current job —
        then ``fetch`` works immediately and ``build(incremental=True)``
        refreshes only what changed since the run that built it.  False
        (table missing, no lineage, or changed definitions) leaves the
        strategy unbuilt; call ``build()`` as usual.
        """
        name = self.job.table_name()
        lineage = self.warehouse.lineage(name)
        if lineage is None or not self.warehouse.has_table(name):
            return False
        if lineage.get("fingerprint") != self._definition_fingerprint():
            return False
        self._built = True
        return True

    def _require_built(self) -> None:
        if not self._built:
            raise MaterializationError("strategy not built yet; call build()")

    # -- refresh machinery (strategies that own the entity table) -------------

    def _stored_columns(self) -> list[Classifier]:
        """The classifiers this strategy stores, one column each."""
        raise NotImplementedError

    def _load_note(self) -> str:
        """The provenance note recorded for a full build."""
        raise NotImplementedError

    def _table_schema(self) -> TableSchema:
        columns = [
            Column(RECORD_ID, DataType.INTEGER, nullable=False),
            Column("source", DataType.TEXT, nullable=False),
        ]
        for classifier in self._stored_columns():
            columns.append(Column(classifier.name, self.job.column_type(classifier)))
        return TableSchema(self.job.table_name(), tuple(columns))

    def _definition_fingerprint(self) -> str:
        """Digest of everything a stored row's content depends on.

        A lineage stamp is only trusted when the fingerprint matches: a
        changed classifier rule, column domain, entity condition, or column
        set makes every stored row suspect, so the refresh degrades to a
        rebuild.  Each source's part is its entity query and its row map's
        key, which states every column's name, rules and ``Domain`` (name,
        kind, categories, bounds) in text that is the same in every
        interpreter, so a durable store's lineage survives a restart.
        """
        parts = [self.job.entity]
        stored = self._stored_columns()
        for source in self.job.sources:
            ec = self.job.entity_classifiers[source.name]
            parts.append(f"{ec.form} WHERE {ec.condition.to_source()}")
            parts.append(self.job.row_map(source, stored).key)
        return hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()

    def _save_lineage(self, fingerprint: str) -> None:
        """Record the build's lineage: ``fingerprint`` is the
        :meth:`_definition_fingerprint` the build computed."""
        self.warehouse.set_lineage(
            self.job.table_name(),
            {
                "fingerprint": fingerprint,
                "versions": LINEAGE_VERSIONS,
                "sources": {
                    source.name: source.data_version() for source in self.job.sources
                },
            },
        )

    def _full_build(self, build_span: Span = NULL_SPAN) -> None:
        # Every source is read before the table is dropped, so a read that
        # raises leaves the previous table and its lineage in place.
        stored = self._stored_columns()
        reads = [self.job.read(source, stored) for source in self.job.sources]
        fingerprint = self._definition_fingerprint()
        schema = self._table_schema()
        if self.warehouse.has_table(schema.name):
            self.warehouse.drop_table(schema.name)
        table = self.warehouse.ensure_table(schema)
        # A refresh finds stored rows by this index.  Made here, where
        # creating the table already moved the plan epoch, it invalidates
        # no kept read of a source sharing the database.
        table.create_index((RECORD_ID,))
        for rows in reads:
            table.insert_many(rows)
        self.warehouse.record_load(
            "materializer", schema.name, len(table), self._load_note()
        )
        build_span.set("rows_extracted", len(table))
        self._save_lineage(fingerprint)
        self._built = True

    def _incremental_build(self, build_span: Span = NULL_SPAN) -> bool:
        """Refresh only changed records; False when lineage can't vouch.

        On False the span carries ``fallback_reason`` naming the lineage
        trust failure that degraded the refresh to a rebuild.
        """
        name = self.job.table_name()
        lineage = self.warehouse.lineage(name)
        if lineage is None or not self.warehouse.has_table(name):
            build_span.set("fallback_reason", "no_lineage")
            return False
        fingerprint = self._definition_fingerprint()
        if lineage.get("fingerprint") != fingerprint:
            # Definitions changed; every stored row is suspect.
            build_span.set("fallback_reason", "definition_changed")
            return False
        if lineage.get("versions") != LINEAGE_VERSIONS:
            build_span.set("fallback_reason", "whole_database_versions")
            return False
        versions = lineage.get("sources", {})
        deltas: list[tuple[GuavaSource, set[int]]] = []
        for source in self.job.sources:
            since = versions.get(source.name)
            if since is None:
                build_span.set("fallback_reason", f"no_version:{source.name}")
                return False
            ec = self.job.entity_classifiers[source.name]
            changed = source.changed_record_ids(since, form=ec.form)
            if changed is None:
                # Untracked mutations or a pruned change feed.
                build_span.set("fallback_reason", f"untracked_changes:{source.name}")
                return False
            if changed:
                deltas.append((source, changed))
        # Every delta is read before any stored row is deleted.
        stored = self._stored_columns()
        reads = [
            (source.name, changed, self.job.read(source, stored, changed))
            for source, changed in deltas
        ]
        table = self.warehouse.table(name)
        refreshed = 0
        reextracted = 0
        for source_name, changed, rows in reads:
            # Records that stopped qualifying simply don't come back; this
            # delete already removed their stale rows.
            self._delete_stored(table, source_name, changed)
            reextracted += table.insert_many(rows)
            refreshed += len(changed)
        if refreshed:
            self.warehouse.record_load(
                "materializer",
                name,
                len(table),
                f"incremental refresh of {refreshed} changed record(s)",
            )
        build_span.set("records_refreshed", refreshed)
        build_span.set("rows_reextracted", reextracted)
        self._save_lineage(fingerprint)
        self._built = True
        return True

    @staticmethod
    def _delete_stored(table: Table, source_name: str, changed: set[int]) -> int:
        """Delete the stored rows of ``source_name``'s ``changed`` records;
        the count deleted.

        They are found through the table's ``record_id`` index (a table
        adopted from a store that never built it gets it here), so a
        refresh that only appends records scans and deletes nothing.
        """
        index = table.create_index((RECORD_ID,))
        positions = [position for rid in changed for position in index.lookup((rid,))]
        doomed = [
            position
            for position, row in zip(positions, table.rows_at(positions))
            if row["source"] == source_name
        ]
        return table.delete_at(doomed)


class SelectiveStrategy(MaterializationStrategy):
    """Materialize only often-used classifiers; recompute the rest.

    Recomputation goes back through GUAVA to the sources, so cold
    classifiers cost query time instead of storage — the trade-off the
    ablation benchmark quantifies.
    """

    def __init__(
        self,
        job: MaterializationJob,
        warehouse: Warehouse,
        materialized: list[str],
    ):
        super().__init__(job, warehouse)
        for name in materialized:
            job.classifier(name)  # validate
        self.materialized = list(materialized)

    def _stored_columns(self) -> list[Classifier]:
        return [self.job.classifier(name) for name in self.materialized]

    def _load_note(self) -> str:
        return f"selective materialization of {self.materialized}"

    def fetch(self, classifier_names: list[str]) -> list[Row]:
        self._require_built()
        stored = [n for n in classifier_names if n in self.materialized]
        cold = [
            self.job.classifier(name)  # validates
            for name in classifier_names
            if name not in self.materialized
        ]
        base_columns = [RECORD_ID, "source"] + stored
        rows = [
            {column: row.get(column) for column in base_columns}
            for row in self.warehouse.table(self.job.table_name()).rows()
        ]
        if not cold:
            return rows
        # Recompute cold classifiers straight from the sources: a read
        # through a row map of just those columns, memoized like any other.
        recomputed = {
            (row[RECORD_ID], row["source"]): row
            for source in self.job.sources
            for row in self.job.read(source, cold)
        }
        for row in rows:
            extra = recomputed.get((row[RECORD_ID], row["source"]), {})
            for classifier in cold:
                row[classifier.name] = extra.get(classifier.name)
        return rows

    def materialized_tables(self) -> list[str]:
        return [self.job.table_name()]


class FullStrategy(SelectiveStrategy):
    """Figure 7: every classifier is a stored column (a selective
    strategy with nothing cold)."""

    def __init__(self, job: MaterializationJob, warehouse: Warehouse):
        super().__init__(job, warehouse, [c.name for c in job.classifiers])

    def _load_note(self) -> str:
        return "full materialization"


@dataclass(frozen=True)
class DerivationRule:
    """Derive one classifier's output from another's stored output.

    ``expression`` references the identifier ``base`` (the stored value);
    e.g. a coarsening ``IIF(base = 'Moderate', 'Heavy', base)`` or a unit
    change ``base / 20``.
    """

    derived: str
    base: str
    expression: Expression

    @classmethod
    def of(cls, derived: str, base: str, expression: str | Expression) -> "DerivationRule":
        return cls(
            derived,
            base,
            parse(expression) if isinstance(expression, str) else expression,
        )


class DerivedStrategy(MaterializationStrategy):
    """Materialize base classifiers; compute derived ones algebraically.

    "if classifier A and classifier B share a simple algebraic
    relationship, then we can materialize A's output and compute B as
    needed."
    """

    def __init__(
        self,
        job: MaterializationJob,
        warehouse: Warehouse,
        derivations: list[DerivationRule],
    ):
        super().__init__(job, warehouse)
        self.derivations = {rule.derived: rule for rule in derivations}
        for rule in derivations:
            self.job.classifier(rule.derived)  # validate
            self.job.classifier(rule.base)
            if rule.base in self.derivations:
                raise MaterializationError(
                    f"derivation base {rule.base!r} is itself derived"
                )
        self._bases = [
            classifier.name
            for classifier in job.classifiers
            if classifier.name not in self.derivations
        ]
        self._inner = SelectiveStrategy(job, warehouse, self._bases)

    def build(self, incremental: bool = False) -> None:
        self._inner.build(incremental)
        self._built = True

    def adopt_existing(self) -> bool:
        if self._inner.adopt_existing():
            self._built = True
            return True
        return False

    def fetch(self, classifier_names: list[str]) -> list[Row]:
        self._require_built()
        needed_bases: list[str] = []
        for name in classifier_names:
            rule = self.derivations.get(name)
            base = rule.base if rule else name
            if base not in needed_bases:
                needed_bases.append(base)
        rows = self._inner.fetch(needed_bases)
        # Lower each derived expression once per fetch, not once per row.
        derive = {
            name: compile_expression(self.derivations[name].expression)
            for name in classifier_names
            if name in self.derivations
        }
        out: list[Row] = []
        for row in rows:
            shaped: Row = {RECORD_ID: row[RECORD_ID], "source": row["source"]}
            for name in classifier_names:
                rule = self.derivations.get(name)
                if rule is None:
                    shaped[name] = row.get(name)
                else:
                    domain = self.job.schema.domain_of(
                        *self.job.classifier(name).target
                    )
                    value = row.get(rule.base)
                    shaped[name] = (
                        domain.check(derive[name]({"base": value}))
                        if value is not None
                        else None
                    )
            out.append(shaped)
        return out

    def materialized_tables(self) -> list[str]:
        return self._inner.materialized_tables()
