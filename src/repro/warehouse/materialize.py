"""Materialization strategies for study schemas (paper §4.2).

Figure 7 shows the *fully-materialized* study schema: one table per entity
(per entity classifier), one column per classifier.  "If the
classifiers/domains ratio is high, then a comprehensive materialized study
schema may be too large to manage.  Alternatives include materializing
only often-used classifiers or determining relationships between
classifiers" — the three strategies below.

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
from repro.multiclass.classifier import (
    Classifier,
    CompiledClassifier,
    EntityClassifier,
)
from repro.multiclass.study_schema import StudySchema
from repro.relational.schema import Column, TableSchema
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
    the candidate columns (every classifier targeting the entity).
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
        self._by_name = {c.name: c for c in self.classifiers}
        #: base_records cache: source name → (data version, records).  The
        #: entity classifier per source is fixed for the job's lifetime, so
        #: the source name keys the (source, entity-classifier) pair.
        self._record_cache: dict[str, tuple[int, list[Row]]] = {}

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

    def base_records(
        self, source: GuavaSource, record_ids: set[int] | None = None
    ) -> list[Row]:
        """The source's qualifying records with all node values.

        Results are cached per source, keyed on the source's monotone data
        version, so a fetch right after a build (or several strategies
        sharing one job) extracts each source once instead of per caller.
        Cached lists are shared — treat them as read-only.

        ``record_ids`` restricts extraction to those logical records (the
        delta path of incremental refresh); restricted extractions bypass
        the cache.
        """
        ec = self.entity_classifiers[source.name]
        # The query has the same shape on every pull, so source.execute
        # reuses one plan per (source, scope) — translated and optimized
        # once, then again only when an index or table changes or the data
        # moves past what the plan assumed.
        query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
        if record_ids is not None:
            return source.execute(query, record_ids=record_ids)
        version = source.data_version()
        cached = self._record_cache.get(source.name)
        if cached is not None and cached[0] == version:
            return cached[1]
        records = source.execute(query)
        self._record_cache[source.name] = (version, records)
        return records


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

    def _stored_columns(self) -> list[tuple[str, Classifier]]:
        """(column name, classifier) pairs this strategy stores."""
        raise NotImplementedError

    def _load_note(self) -> str:
        """The provenance note recorded for a full build."""
        raise NotImplementedError

    def _table_schema(self) -> TableSchema:
        columns = [
            Column(RECORD_ID, DataType.INTEGER, nullable=False),
            Column("source", DataType.TEXT, nullable=False),
        ]
        for name, classifier in self._stored_columns():
            columns.append(Column(name, self.job.column_type(classifier)))
        return TableSchema(self.job.table_name(), tuple(columns))

    def _compiled(
        self, columns: Iterable[tuple[str, Classifier]]
    ) -> list[tuple[str, CompiledClassifier]]:
        """(column name, compiled classifier) pairs, compiled once per pass."""
        return [
            (name, classifier.compile(self.job.schema.domain_of(*classifier.target)))
            for name, classifier in columns
        ]

    def _classified(
        self,
        record: Row,
        source_name: str,
        compiled: list[tuple[str, CompiledClassifier]],
    ) -> Row:
        row: Row = {RECORD_ID: record[RECORD_ID], "source": source_name}
        for name, classify in compiled:
            row[name] = classify(record)
        return row

    def _definition_fingerprint(self) -> str:
        """Digest of everything a stored row's content depends on.

        A lineage stamp is only trusted when the fingerprint matches: a
        changed classifier rule, entity condition, or column set makes
        every stored row suspect, so the refresh degrades to a rebuild.
        """
        parts = [self.job.entity]
        for name, classifier in self._stored_columns():
            rules = "; ".join(rule.to_source() for rule in classifier.rules)
            parts.append(f"{name}@{classifier.target}: {rules}")
        for source in self.job.sources:
            ec = self.job.entity_classifiers[source.name]
            parts.append(f"{source.name}/{ec.form} WHERE {ec.condition.to_source()}")
        return hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()

    def _save_lineage(self) -> None:
        self.warehouse.set_lineage(
            self.job.table_name(),
            {
                "fingerprint": self._definition_fingerprint(),
                "versions": LINEAGE_VERSIONS,
                "sources": {
                    source.name: source.data_version() for source in self.job.sources
                },
            },
        )

    def _full_build(self, build_span: Span = NULL_SPAN) -> None:
        schema = self._table_schema()
        if self.warehouse.has_table(schema.name):
            self.warehouse.drop_table(schema.name)
        table = self.warehouse.ensure_table(schema)
        compiled = self._compiled(self._stored_columns())
        for source in self.job.sources:
            table.insert_many(
                self._classified(record, source.name, compiled)
                for record in self.job.base_records(source)
            )
        self.warehouse.record_load(
            "materializer", schema.name, len(table), self._load_note()
        )
        build_span.set("rows_extracted", len(table))
        self._save_lineage()
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
        if lineage.get("fingerprint") != self._definition_fingerprint():
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
            deltas.append((source, changed))
        table = self.warehouse.table(name)
        compiled = self._compiled(self._stored_columns())
        refreshed = 0
        reextracted = 0
        for source, changed in deltas:
            if not changed:
                continue
            table.delete(
                lambda row, s=source.name, ids=changed: row["source"] == s
                and row[RECORD_ID] in ids
            )
            # Records that stopped qualifying simply don't come back; the
            # delete above already removed their stale rows.
            reextracted += table.insert_many(
                self._classified(record, source.name, compiled)
                for record in self.job.base_records(source, record_ids=changed)
            )
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
        self._save_lineage()
        self._built = True
        return True


class FullStrategy(MaterializationStrategy):
    """Figure 7: every classifier is a stored column."""

    def _stored_columns(self) -> list[tuple[str, Classifier]]:
        return [(classifier.name, classifier) for classifier in self.job.classifiers]

    def _load_note(self) -> str:
        return "full materialization"

    def fetch(self, classifier_names: list[str]) -> list[Row]:
        self._require_built()
        for name in classifier_names:
            self.job.classifier(name)  # validate
        columns = [RECORD_ID, "source"] + list(classifier_names)
        return [
            {column: row.get(column) for column in columns}
            for row in self.warehouse.table(self.job.table_name()).rows()
        ]

    def materialized_tables(self) -> list[str]:
        return [self.job.table_name()]


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

    def _stored_columns(self) -> list[tuple[str, Classifier]]:
        return [(name, self.job.classifier(name)) for name in self.materialized]

    def _load_note(self) -> str:
        return f"selective materialization of {self.materialized}"

    def fetch(self, classifier_names: list[str]) -> list[Row]:
        self._require_built()
        stored = [n for n in classifier_names if n in self.materialized]
        cold = [n for n in classifier_names if n not in self.materialized]
        for name in cold:
            self.job.classifier(name)  # validate
        base_columns = [RECORD_ID, "source"] + stored
        rows = [
            {column: row.get(column) for column in base_columns}
            for row in self.warehouse.table(self.job.table_name()).rows()
        ]
        if not cold:
            return rows
        # Recompute cold classifiers straight from the sources (cached in
        # the job, so this does not re-extract right after a build).
        cold_compiled = self._compiled(
            (name, self.job.classifier(name)) for name in cold
        )
        recomputed: dict[tuple[object, str], Row] = {}
        for source in self.job.sources:
            for record in self.job.base_records(source):
                key = (record[RECORD_ID], source.name)
                recomputed[key] = {
                    name: classify(record) for name, classify in cold_compiled
                }
        for row in rows:
            extra = recomputed.get((row[RECORD_ID], row["source"]), {})
            for name in cold:
                row[name] = extra.get(name)
        return rows

    def materialized_tables(self) -> list[str]:
        return [self.job.table_name()]


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

    def apply(self, base_value: object) -> object:
        # Compiled once per distinct expression (memoized in
        # repro.expr.compile), so applying a rule over a fetched column
        # walks the AST once, not once per row.
        return compile_expression(self.expression)({"base": base_value})


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
                        domain.check(rule.apply(value)) if value is not None else None
                    )
            out.append(shaped)
        return out

    def materialized_tables(self) -> list[str]:
        return self._inner.materialized_tables()
