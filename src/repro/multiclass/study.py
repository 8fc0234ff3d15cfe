"""Studies: the unit of analyst work.

"A study comprises all of the decisions that a data analyst makes from the
time a request arrives to when final statistical analyses are run."  A
:class:`Study` bundles:

* the study-schema elements of interest (entity, attribute, domain),
* WHERE-like filters over the classified output,
* per-source bindings: an entity classifier per entity and a domain
  classifier per element,

and executes by pulling each source's data through GUAVA, classifying, and
unioning — "MultiClass simply unions together the results of ETL workflows
from different contributors."  Classification happens *inside* the read:
each (binding, entity) has one :class:`EntityRowMap` (record-scoped
cleaning, then the element classifiers, then the output shape), and
:meth:`~repro.guava.source.GuavaSource.execute` keeps the mapped rows per
data version, so a record is classified once per data version, whichever
of a preview or a publish reads it first.  Direct execution here is the
semantic reference; :mod:`repro.etl.compile` turns the same study into an
ETL workflow over the same row maps, and Hypothesis 3 checks the two agree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import StudyError
from repro.expr.ast import BinaryOp, Expression
from repro.expr.evaluator import Evaluator
from repro.expr.memo import IdentityTupleMemo
from repro.expr.parser import parse
from repro.guava.query import GTreeQuery
from repro.guava.source import GuavaSource, RowMap
from repro.multiclass.classifier import Classifier, EntityClassifier
from repro.multiclass.cleaning import CleaningRule, Quarantine, apply_rules
from repro.multiclass.domain import Domain
from repro.multiclass.study_schema import StudySchema
from repro.relational.query import _fingerprint
from repro.ui.form import RECORD_ID
from repro.util.annotations import Annotated

_EVALUATOR = Evaluator()

Row = dict[str, object]

#: An element the analyst selected: (entity, attribute, domain).
Element = tuple[str, str, str]


#: Output column carrying the has-a parent's record id (child entities).
PARENT_RECORD_ID = "parent_record_id"


#: Bind checks and row maps, kept per the identity of their immutable
#: inputs (``Rule``, AST, ``Domain`` and g-tree objects, names and cleaning
#: rules), so a study rebuilt from the same definitions repeats none of the
#: work.  Never keyed on a ``Classifier`` or ``EntityClassifier``: those
#: are the caller's own, mutable objects.
_CLASSIFIER_CHECKS: IdentityTupleMemo[list[str]] = IdentityTupleMemo()
_ENTITY_CHECKS: IdentityTupleMemo[list[str]] = IdentityTupleMemo()
_ROW_MAPS: IdentityTupleMemo["EntityRowMap"] = IdentityTupleMemo()


#: Marks a mapped row as a record a record-scoped cleaning rule discarded:
#: the row is the raw record plus this key, whose value is the rule's index
#: among the map's rules.  Not an identifier, so no g-tree node collides.
DISCARDED = "#discarded_by"


def element_column(attribute: str, domain: str) -> str:
    """The output column name for an (attribute, domain) selection.

    Interned, so the rows of every source's row map and the warehouse
    schema share one key object per column and compare keys by identity.
    """
    return sys.intern(f"{attribute}_{domain}")


@dataclass(frozen=True)
class EntityRowMap(RowMap):
    """The row map of one (binding, entity) read.

    ``apply`` takes one raw g-tree record to its study row, or to the raw
    record marked :data:`DISCARDED` by the first of ``rules`` (the active
    record-scoped cleaning rules) that discards it.  :meth:`sift` turns a
    read's rows back into study rows and quarantine entries.
    """

    source_name: str
    rules: tuple[CleaningRule, ...]

    def sift(self, rows: list[Row], quarantine: Quarantine) -> list[Row]:
        """The study rows of a mapped read; discarded records go to
        ``quarantine`` in read order.

        The rows are shared and read-only (see
        :meth:`~repro.guava.source.GuavaSource.execute`): a study row is
        handed on as it is, and a discarded one is quarantined as a new
        dict of the raw record, without the :data:`DISCARDED` mark.
        """
        if not self.rules:
            return rows
        kept: list[Row] = []
        for row in rows:
            index = row.get(DISCARDED)
            if index is None:
                kept.append(row)
            else:
                record = {k: v for k, v in row.items() if k != DISCARDED}
                quarantine.add(self.rules[index], self.source_name, record)
        return kept


def entity_row_map(
    source_name: str,
    columns: Iterable[tuple[str, Classifier, Domain]],
    parent_link: str | None = None,
    discards: tuple[CleaningRule, ...] = (),
) -> EntityRowMap:
    """The row map that classifies one source's entity records.

    A record one of ``discards`` (record-scoped cleaning rules) discards
    is marked, not classified.  Any other record becomes ``record_id``,
    ``source``, ``parent_record_id`` (when ``parent_link`` names the node
    holding it) and one value per ``(column, classifier, domain)``, in
    that order.  This is the one place a study or warehouse column's
    classifier is compiled.

    The key is structural: the source name, ``parent_link``, each
    column's name, rules and domain, and the discards' conditions.
    Classifier names and descriptions are left out, so a definition
    rebuilt from the same rules shares the memoized rows of the one
    before.  Its text holds no set or id, so it is the same in every
    interpreter.  The map itself, key text and compiled closures, is kept
    per the identity of those inputs, so a rebuilt definition, which
    holds the same objects, gets the very map of the build before.  A map
    is kept only when its key text is fixed (see
    :func:`~repro.relational.query._fingerprint`), so one over a
    ``Literal`` or ``Domain`` holding a list is built on every call.
    """
    resolved = [(column, tuple(c.rules), domain, c) for column, c, domain in columns]
    conditions = tuple(rule.condition for rule in discards)
    # One flat tuple, each item by identity; the items' types fix where
    # each column's name, domain and rules begin.
    key = (source_name, parent_link, *discards, *conditions)
    for column, rules, domain, _ in resolved:
        key += (column, domain, *rules)
    kept = _ROW_MAPS.get(key)
    if kept is not None:
        return kept

    structure = (
        source_name,
        parent_link,
        *((column, rules, domain) for column, rules, domain, _ in resolved),
        conditions,
    )
    parts: list[str] = []
    fixed = _fingerprint(structure, parts.append)
    compiled = [(column, c.compile(domain)) for column, _, domain, c in resolved]

    def apply(record: Row) -> Row:
        for index, rule in enumerate(discards):
            if rule.discards(record):
                discarded = dict(record)
                discarded[DISCARDED] = index
                return discarded
        row: Row = {RECORD_ID: record[RECORD_ID], "source": source_name}
        if parent_link is not None:
            row[PARENT_RECORD_ID] = record.get(parent_link)
        for column, classify in compiled:
            row[column] = classify(record)
        return row

    row_map = EntityRowMap("".join(parts), apply, source_name, discards)
    if fixed:
        _ROW_MAPS.put(key, row_map)
    return row_map


@dataclass
class SourceBinding:
    """One contributor's classifiers for a study."""

    source: GuavaSource
    entity_classifiers: dict[str, EntityClassifier] = field(default_factory=dict)
    classifiers: dict[Element, Classifier] = field(default_factory=dict)


@dataclass
class Study(Annotated):
    """A named, reusable, annotated set of integration decisions.

    :meth:`run` previews it; :func:`repro.etl.compile_study` publishes it.
    Both read each (binding, entity) through the same :meth:`row_map`, so
    they share the source's memoized, classified rows.
    """

    name: str
    schema: StudySchema
    description: str = ""
    elements: list[Element] = field(default_factory=list)
    filters: dict[str, Expression] = field(default_factory=dict)  # entity -> filter
    bindings: list[SourceBinding] = field(default_factory=list)
    #: §6 data cleaning: DISCARD WHEN rules per entity.
    cleaning: dict[str, list[CleaningRule]] = field(default_factory=dict)

    # -- declaration ---------------------------------------------------------

    def add_element(self, entity: str, attribute: str, domain: str) -> Element:
        """Select a study-schema element (validates it exists)."""
        self.schema.domain_of(entity, attribute, domain)
        element = (entity, attribute, domain)
        if element in self.elements:
            raise StudyError(f"element {element} already selected")
        self.elements.append(element)
        return element

    def where(self, entity: str, condition: str | Expression) -> None:
        """Filter an entity's classified rows (conditions AND together).

        Conditions reference output columns (``attribute_domain``) plus
        ``record_id`` and ``source``.
        """
        expr = parse(condition) if isinstance(condition, str) else condition
        if entity in self.filters:
            expr = BinaryOp("AND", self.filters[entity], expr)
        self.filters[entity] = expr

    def add_cleaning_rule(self, entity: str, rule: CleaningRule) -> CleaningRule:
        """Attach a DISCARD WHEN rule to an entity (paper §6).

        ``record``-scoped rules see g-tree node values before
        classification; ``study``-scoped rules see the classified output
        columns after the union.
        """
        if not self.schema.has_entity(entity):
            raise StudyError(f"study schema has no entity {entity!r}")
        self.cleaning.setdefault(entity, []).append(rule)
        return rule

    def bind(
        self,
        source: GuavaSource,
        entity_classifiers: list[EntityClassifier],
        classifiers: list[Classifier],
    ) -> SourceBinding:
        """Attach one contributor with its classifier choices.

        Validates every classifier against the source's g-trees and
        against the study schema, so binding errors surface at study
        definition time, not mid-run.  A ``validate_against`` result is
        a function of immutable objects alone, so it is kept: per (the
        ``Rule`` objects, the g-tree) for a classifier, and per (the
        condition AST, form, ``parent_link``, the g-tree) for an entity
        classifier, each by identity.  A rebuilt definition, which holds
        the same objects, is checked by lookup; a redeployed tool's new
        g-tree objects are checked afresh.  The schema and duplicate
        checks run on every bind.
        """
        binding = SourceBinding(source)
        for ec in entity_classifiers:
            if not self.schema.has_entity(ec.target_entity):
                raise StudyError(
                    f"entity classifier {ec.name!r} targets unknown entity "
                    f"{ec.target_entity!r}"
                )
            gtree = source.gtree(ec.form)
            key = (ec.condition, ec.form, ec.parent_link, gtree)
            problems = _ENTITY_CHECKS.get(key)
            if problems is None:
                problems = _ENTITY_CHECKS.put(key, ec.validate_against(gtree))
            if problems:
                raise StudyError(
                    f"entity classifier {ec.name!r} invalid for source "
                    f"{source.name!r}: {problems}"
                )
            if ec.target_entity in binding.entity_classifiers:
                raise StudyError(
                    f"duplicate entity classifier for {ec.target_entity!r}"
                )
            binding.entity_classifiers[ec.target_entity] = ec
        for classifier in classifiers:
            target = classifier.target
            self.schema.domain_of(*target)  # raises if unknown
            ec = binding.entity_classifiers.get(classifier.target_entity)
            if ec is None:
                raise StudyError(
                    f"classifier {classifier.name!r} targets entity "
                    f"{classifier.target_entity!r} with no entity classifier bound"
                )
            gtree = source.gtree(classifier.source_form or ec.form)
            key = (*classifier.rules, gtree)
            missing = _CLASSIFIER_CHECKS.get(key)
            if missing is None:
                missing = _CLASSIFIER_CHECKS.put(
                    key, classifier.validate_against(gtree)
                )
            if missing:
                raise StudyError(
                    f"classifier {classifier.name!r} references unknown "
                    f"node(s) {missing} in source {source.name!r}"
                )
            binding.classifiers[target] = classifier
        self.bindings.append(binding)
        return binding

    # -- execution -------------------------------------------------------------

    def elements_of(self, entity: str) -> list[Element]:
        return [element for element in self.elements if element[0] == entity]

    def entities_in_play(self) -> list[str]:
        """Entities with at least one selected element, in schema order."""
        wanted = {element[0] for element in self.elements}
        return [e.name for e in self.schema.entities() if e.name in wanted]

    def run(self) -> "StudyResult":
        """Execute the study directly (the semantic reference).

        Each binding's entity rows are one classified read through
        :meth:`row_map`; the study-scoped cleaning rules and the filters
        then apply to their union.
        """
        if not self.bindings:
            raise StudyError(f"study {self.name!r} has no sources bound")
        if not self.elements:
            raise StudyError(f"study {self.name!r} selects no elements")
        tables: dict[str, list[Row]] = {}
        quarantine = Quarantine()
        for entity in self.entities_in_play():
            rows: list[Row] = []
            for binding in self.bindings:
                rows.extend(self._run_entity(binding, entity, quarantine))
            rules = self.cleaning.get(entity, [])
            rows = apply_rules(rules, rows, "study", "study", quarantine)
            condition = self.filters.get(entity)
            if condition is not None:
                rows = [row for row in rows if _EVALUATOR.satisfied(condition, row)]
            tables[entity] = rows
        return StudyResult(self.name, tables, quarantine)

    def _run_entity(
        self, binding: SourceBinding, entity: str, quarantine: Quarantine
    ) -> list[Row]:
        ec = binding.entity_classifiers.get(entity)
        if ec is None:
            raise StudyError(
                f"source {binding.source.name!r} has no entity classifier "
                f"for {entity!r}"
            )
        row_map = self.row_map(binding, entity, ec.parent_link)
        query = GTreeQuery(binding.source.gtree(ec.form)).where(ec.condition)
        records = binding.source.execute(query, row_map=row_map)
        return row_map.sift(records, quarantine)

    def row_map(
        self, binding: SourceBinding, entity: str, parent_link: str | None
    ) -> EntityRowMap:
        """The row map of ``entity``'s read from ``binding``'s source.

        The active record-scoped cleaning rules discard first (see
        :func:`entity_row_map`); then one column per selected element.
        Every element's classifier and domain are resolved here, before
        any record is read, so a missing classifier fails the same way
        whatever the source holds.
        """
        source_name = binding.source.name
        discards = tuple(
            rule
            for rule in self.cleaning.get(entity, [])
            if rule.scope == "record" and rule.source in (None, source_name)
        )
        columns = []
        for element in self.elements_of(entity):
            classifier = binding.classifiers.get(element)
            if classifier is None:
                raise StudyError(
                    f"source {source_name!r} has no classifier for {element}"
                )
            column = element_column(*element[1:])
            columns.append((column, classifier, self.schema.domain_of(*element)))
        return entity_row_map(source_name, columns, parent_link, discards)

    def output_columns(self, entity: str) -> tuple[str, ...]:
        """Column names of an entity's study table."""
        base: tuple[str, ...] = (RECORD_ID, "source")
        if self.has_parent_link(entity):
            base = base + (PARENT_RECORD_ID,)
        return base + tuple(
            element_column(attribute, domain)
            for _, attribute, domain in self.elements_of(entity)
        )

    def has_parent_link(self, entity: str) -> bool:
        """True when every bound entity classifier provides a parent link.

        The link column only appears when it is total: a partially-linked
        union would silently mix linkable and orphan rows.
        """
        classifiers = [
            binding.entity_classifiers[entity]
            for binding in self.bindings
            if entity in binding.entity_classifiers
        ]
        return bool(classifiers) and all(
            ec.parent_link is not None for ec in classifiers
        )


@dataclass
class StudyResult:
    """Classified, cleaned, filtered, unioned rows per entity."""

    study_name: str
    tables: dict[str, list[Row]]
    quarantine: Quarantine = field(default_factory=Quarantine)

    def rows(self, entity: str) -> list[Row]:
        if entity not in self.tables:
            raise StudyError(f"study result has no entity {entity!r}")
        return self.tables[entity]

    def count(self, entity: str) -> int:
        return len(self.rows(entity))

    def distribution(self, entity: str, column: str) -> dict[object, int]:
        """Value counts of one output column — the analyst's first look."""
        counts: dict[object, int] = {}
        for row in self.rows(entity):
            key = row.get(column)
            counts[key] = counts.get(key, 0) + 1
        return counts
