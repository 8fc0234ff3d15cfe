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

Definitions are data.  A :class:`SourceBinding` is one contributor's
checked classifier choices: immutable, checked once when it is made, and
shared by every study that binds the same choices, with its entity
queries and, per study shape, its row maps.  A study holds a
:class:`StudyBinding` per source, its own view of a binding.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable

from repro.errors import StudyError
from repro.expr.ast import BinaryOp, Expression
from repro.expr.evaluator import Evaluator
from repro.expr.parser import parse
from repro.guava.gtree import GTree
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
    read's rows back into study rows and quarantine entries.  ``fixed``
    says ``key`` can never change (no mutable value below it), so the map
    may be kept.
    """

    source_name: str
    rules: tuple[CleaningRule, ...]
    fixed: bool = True

    def sift(self, rows: list[Row], quarantine: Quarantine) -> list[Row]:
        """The study rows of a mapped read; discarded records go to
        ``quarantine`` in read order.

        The rows are shared and read-only (see
        :meth:`~repro.guava.source.GuavaSource.execute`): a study row is
        handed on as it is, and a discarded one is quarantined as a new
        dict of the raw record, without the :data:`DISCARDED` mark, the
        one copy made of it (:meth:`Quarantine.add` keeps the dict it is
        given).
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
    interpreter.  Each call builds a new map; a caller that reads through
    one definition many times keeps the map it gets (a shared
    :class:`SourceBinding` keeps its studies' maps, see
    :meth:`Study.row_map`), but only a ``fixed`` one (see
    :func:`~repro.relational.query._fingerprint`): one over a ``Literal``
    or ``Domain`` holding a list must be built on every call.
    """
    resolved = [(column, tuple(c.rules), domain, c) for column, c, domain in columns]
    conditions = tuple(rule.condition for rule in discards)
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

    return EntityRowMap("".join(parts), apply, source_name, discards, fixed)


@dataclass(frozen=True, eq=False)
class SourceBinding:
    """One contributor's checked classifier choices: immutable, shared.

    Made by :meth:`check`, which runs every check that depends on the
    source alone, once.  Its classifiers are frozen (see
    :meth:`~repro.multiclass.classifier.Freezable.frozen`), so nothing a
    study reads through it can change after the check: ``queries`` holds
    each entity classifier's g-tree query, built once (its read shape is
    kept on the query), and ``row_maps`` the row maps of the studies that
    bind it, filled by :meth:`Study.row_map` per (entity, parent link,
    selected elements, frozen schema).  A study whose record-scoped
    cleaning rules discard from this source builds its own map instead,
    so no study's rules reach the binding.

    ``gtrees`` are the (form, g-tree object) pairs the checks ran
    against: a redeployed tool's new g-trees make the binding stale
    (:meth:`is_current`), and its maker checks a new one.  The binding
    holds its source weakly, so a table of bindings kept per source (see
    :meth:`~repro.analysis.classifiers.VendorCatalogue.binding`) never
    keeps a dropped source, and its database, alive; a study's
    :class:`StudyBinding` holds the source itself.
    """

    source_ref: weakref.ReferenceType[GuavaSource]
    entity_classifiers: MappingProxyType[str, EntityClassifier]
    classifiers: MappingProxyType[Element, Classifier]
    queries: MappingProxyType[str, GTreeQuery]
    gtrees: tuple[tuple[str, GTree], ...]
    row_maps: dict[tuple, EntityRowMap] = field(default_factory=dict)

    @classmethod
    def check(
        cls,
        source: GuavaSource,
        entity_classifiers: Iterable[EntityClassifier],
        classifiers: Iterable[Classifier],
    ) -> "SourceBinding":
        """Check frozen copies of the classifiers against ``source``.

        Every entity classifier must validate against its form's g-tree,
        at most one per entity; every classifier needs its entity's
        classifier and must name only nodes its g-tree has.  Any failure
        raises :class:`~repro.errors.StudyError`.  Building the entity
        queries validates them too.
        """
        source_name = source.name
        bound_entities: dict[str, EntityClassifier] = {}
        gtrees: dict[str, GTree] = {}
        for ec in map(EntityClassifier.frozen, entity_classifiers):
            gtree = gtrees[ec.form] = source.gtree(ec.form)
            problems = ec.validate_against(gtree)
            if problems:
                raise StudyError(
                    f"entity classifier {ec.name!r} invalid for source "
                    f"{source_name!r}: {problems}"
                )
            if ec.target_entity in bound_entities:
                raise StudyError(
                    f"duplicate entity classifier for {ec.target_entity!r}"
                )
            bound_entities[ec.target_entity] = ec
        bound: dict[Element, Classifier] = {}
        for classifier in map(Classifier.frozen, classifiers):
            ec = bound_entities.get(classifier.target_entity)
            if ec is None:
                raise StudyError(
                    f"classifier {classifier.name!r} targets entity "
                    f"{classifier.target_entity!r} with no entity classifier bound"
                )
            form = classifier.source_form or ec.form
            gtree = gtrees[form] = source.gtree(form)
            missing = classifier.validate_against(gtree)
            if missing:
                raise StudyError(
                    f"classifier {classifier.name!r} references unknown "
                    f"node(s) {missing} in source {source_name!r}"
                )
            bound[classifier.target] = classifier
        queries = {
            entity: _entity_query(source, ec) for entity, ec in bound_entities.items()
        }
        return cls(
            weakref.ref(source),
            MappingProxyType(bound_entities),
            MappingProxyType(bound),
            MappingProxyType(queries),
            tuple(gtrees.items()),
        )

    @property
    def source(self) -> GuavaSource | None:
        """The source, or None once nothing else holds it."""
        return self.source_ref()

    def is_current(self) -> bool:
        """True while the source lives and still serves the g-trees the
        binding was checked on."""
        source = self.source_ref()
        if source is None:
            return False
        gtrees = source.gtrees
        for form, tree in self.gtrees:
            if gtrees.get(form) is not tree:
                return False
        return True


def _entity_query(source: GuavaSource, ec: EntityClassifier) -> GTreeQuery:
    """The g-tree query of ``ec``'s records in ``source``."""
    return GTreeQuery(source.gtree(ec.form)).where(ec.condition)


class StudyBinding:
    """A study's own view of a shared :class:`SourceBinding`.

    ``entity_classifiers`` and ``classifiers`` are the study's own dicts,
    copied from the binding's on first access, so the study may replace an
    entry (swap in another classifier, say) without reaching the binding
    or any other study.  A replaced entry is read as it is, and nothing
    derived from it is kept: :meth:`query` and :meth:`Study.row_map` use
    the binding's query and kept maps only for the entries that are still
    the binding's own objects.  Reads through :meth:`entity_classifier`
    and :meth:`classifier` copy nothing, so a study nobody edits costs no
    copy.
    """

    __slots__ = ("binding", "source", "_entity_classifiers", "_classifiers")

    def __init__(self, binding: SourceBinding, source: GuavaSource) -> None:
        self.binding = binding
        self.source = source
        self._entity_classifiers: dict[str, EntityClassifier] | None = None
        self._classifiers: dict[Element, Classifier] | None = None

    @property
    def entity_classifiers(self) -> dict[str, EntityClassifier]:
        if self._entity_classifiers is None:
            self._entity_classifiers = self.binding.entity_classifiers.copy()
        return self._entity_classifiers

    @property
    def classifiers(self) -> dict[Element, Classifier]:
        if self._classifiers is None:
            self._classifiers = self.binding.classifiers.copy()
        return self._classifiers

    def entity_classifier(self, entity: str) -> EntityClassifier | None:
        own = self._entity_classifiers
        return (self.binding.entity_classifiers if own is None else own).get(entity)

    def classifier(self, element: Element) -> Classifier | None:
        own = self._classifiers
        return (self.binding.classifiers if own is None else own).get(element)

    def keeps(self, elements: Iterable[Element]) -> bool:
        """True when every element's classifier is the binding's own."""
        own = self._classifiers
        if own is None:
            return True
        shared = self.binding.classifiers
        return all(own.get(element) is shared.get(element) for element in elements)

    def query(self, entity: str) -> GTreeQuery:
        """The g-tree query of ``entity``'s records (which must have an
        entity classifier): the binding's own when the study kept the
        binding's entity classifier."""
        own = self._entity_classifiers
        if own is not None:
            ec = own[entity]
            if ec is not self.binding.entity_classifiers.get(entity):
                return _entity_query(self.source, ec)
        return self.binding.queries[entity]


@dataclass
class Study(Annotated):
    """A named, reusable, annotated set of integration decisions.

    :meth:`run` previews it; :func:`repro.etl.compile_study` publishes it.
    Both read each (binding, entity) through the same :meth:`row_map`, so
    they share the source's memoized, classified rows.  A study is cheap
    to build: its bindings are views of shared, checked
    :class:`SourceBinding` objects, and its schema is usually a shared,
    frozen one.
    """

    name: str
    schema: StudySchema
    description: str = ""
    elements: list[Element] = field(default_factory=list)
    filters: dict[str, Expression] = field(default_factory=dict)  # entity -> filter
    bindings: list[StudyBinding] = field(default_factory=list)
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
    ) -> StudyBinding:
        """Attach one contributor with its classifier choices.

        Validates every classifier against the source's g-trees
        (:meth:`SourceBinding.check`) and against the study schema
        (:meth:`attach`), so binding errors surface at study definition
        time, not mid-run.  Every call runs every check.  The binding
        holds frozen copies of the classifiers: the caller keeps its own
        objects, and changing one later changes neither this study nor
        any other.  Studies that bind the same choices over and over share
        a checked binding instead (:meth:`attach`, as
        :func:`~repro.analysis.classifiers.standard_bindings` does).
        """
        return self.attach(SourceBinding.check(source, entity_classifiers, classifiers))

    def attach(self, binding: SourceBinding) -> StudyBinding:
        """Attach a checked binding, shared or not: only the schema checks
        run (every entity and classifier target must be in the schema)."""
        source = binding.source
        if source is None:
            raise StudyError("the binding's source no longer exists")
        for ec in binding.entity_classifiers.values():
            if not self.schema.has_entity(ec.target_entity):
                raise StudyError(
                    f"entity classifier {ec.name!r} targets unknown entity "
                    f"{ec.target_entity!r}"
                )
        self.schema.check_targets(binding.classifiers.keys())
        view = StudyBinding(binding, source)
        self.bindings.append(view)
        return view

    # -- execution -------------------------------------------------------------

    def elements_of(self, entity: str) -> tuple[Element, ...]:
        return tuple(element for element in self.elements if element[0] == entity)

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
        self, binding: StudyBinding, entity: str, quarantine: Quarantine
    ) -> list[Row]:
        ec = binding.entity_classifier(entity)
        if ec is None:
            raise StudyError(
                f"source {binding.source.name!r} has no entity classifier "
                f"for {entity!r}"
            )
        row_map = self.row_map(binding, entity, ec.parent_link)
        records = binding.source.execute(binding.query(entity), row_map=row_map)
        return row_map.sift(records, quarantine)

    def row_map(
        self, binding: StudyBinding, entity: str, parent_link: str | None
    ) -> EntityRowMap:
        """The row map of ``entity``'s read from ``binding``'s source.

        The active record-scoped cleaning rules discard first (see
        :func:`entity_row_map`); then one column per selected element.
        Every element's classifier and domain are resolved here, before
        any record is read, so a missing classifier fails the same way
        whatever the source holds.

        The map is kept on the shared :class:`SourceBinding`, per
        (entity, ``parent_link``, selected elements, schema), when nothing
        in it is this study's own: the schema is frozen, every selected
        element's classifier is still the binding's, and no record-scoped
        rule of the study discards from this source.  So every later
        build of the same definition gets the very map, and a study's
        cleaning rules or replaced classifiers reach no other study.
        """
        source_name = binding.source.name
        discards = tuple(
            rule
            for rule in self.cleaning.get(entity, [])
            if rule.scope == "record" and rule.source in (None, source_name)
        )
        elements = self.elements_of(entity)
        kept = not discards and self.schema.frozen and binding.keeps(elements)
        row_maps = binding.binding.row_maps
        key = (entity, parent_link, elements, self.schema)
        if kept:
            row_map = row_maps.get(key)
            if row_map is not None:
                return row_map
        columns = []
        for element in elements:
            classifier = binding.classifier(element)
            if classifier is None:
                raise StudyError(
                    f"source {source_name!r} has no classifier for {element}"
                )
            column = element_column(*element[1:])
            columns.append((column, classifier, self.schema.domain_of(*element)))
        row_map = entity_row_map(source_name, columns, parent_link, discards)
        if kept and row_map.fixed:
            row_maps[key] = row_map
        return row_map

    def has_parent_link(self, entity: str) -> bool:
        """True when every bound entity classifier provides a parent link.

        The link column only appears when it is total: a partially-linked
        union would silently mix linkable and orphan rows.
        """
        found = (binding.entity_classifier(entity) for binding in self.bindings)
        classifiers = [ec for ec in found if ec is not None]
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
