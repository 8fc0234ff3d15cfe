"""Compiling studies into ETL workflows (paper Figure 6, Hypothesis 3).

"At present, a study created over GUAVA and MultiClass has a logical
translation to a sequence of three ETL components, each executing a query
over the previous one's results."  The three stages:

1. **extract**  — per source and entity: GUAVA translates the entity
   classifier's g-tree query through the design-pattern chain and pulls
   qualifying records out of the physical database (first temporary DB).
2. **classify** — each bound domain classifier becomes a Classify
   component writing its ``attribute_domain`` column; a projection trims
   to the study columns (second temporary DB).
3. **study**    — union across contributors, apply the study's WHERE-like
   filters, and load the result into the warehouse.

The compiled workflow is *behaviourally equivalent* to
:meth:`repro.multiclass.study.Study.run` — the executable statement of
Hypothesis 3, checked by integration tests and the H3 benchmark.
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.expr.ast import Identifier
from repro.etl.components import (
    AddConstant,
    Classify,
    Clean,
    DeriveColumn,
    Extract,
    FilterRows,
    Load,
    ProjectColumns,
    UnionInputs,
)
from repro.multiclass.cleaning import Quarantine
from repro.etl.workflow import Workflow
from repro.guava.query import GTreeQuery
from repro.multiclass.domain import Domain, DomainKind
from repro.multiclass.study import PARENT_RECORD_ID, Study, element_column
from repro.relational.database import Database
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.ui.form import RECORD_ID

_DOMAIN_TYPES = {
    DomainKind.CATEGORICAL: DataType.TEXT,
    DomainKind.INTEGER: DataType.INTEGER,
    DomainKind.FLOAT: DataType.FLOAT,
    DomainKind.BOOLEAN: DataType.BOOLEAN,
    DomainKind.TEXT: DataType.TEXT,
}


def domain_data_type(domain: Domain) -> DataType:
    """The warehouse column type for one domain."""
    return _DOMAIN_TYPES[domain.kind]


def study_table_schema(study: Study, entity: str) -> TableSchema:
    """The warehouse table schema for one entity of a study."""
    columns = [
        Column(RECORD_ID, DataType.INTEGER, nullable=False),
        Column("source", DataType.TEXT, nullable=False),
    ]
    if study.has_parent_link(entity):
        columns.append(Column(PARENT_RECORD_ID, DataType.INTEGER))
    for _, attribute, domain_name in study.elements_of(entity):
        domain = study.schema.domain_of(entity, attribute, domain_name)
        columns.append(
            Column(element_column(attribute, domain_name), domain_data_type(domain))
        )
    table_name = f"study_{study.name}_{entity}".lower()
    return TableSchema(table_name, tuple(columns))


def compile_study(study: Study, warehouse: Database) -> Workflow:
    """Translate a study into its three-stage ETL workflow."""
    if not study.bindings:
        raise CompileError(f"study {study.name!r} has no sources bound")
    if not study.elements:
        raise CompileError(f"study {study.name!r} selects no elements")
    workflow = Workflow(f"etl_{study.name}")
    quarantine = Quarantine()
    workflow.context["quarantine"] = quarantine
    for entity in study.entities_in_play():
        cleaning_rules = study.cleaning.get(entity, [])
        branch_heads: list[str] = []
        for binding in study.bindings:
            source = binding.source
            ec = binding.entity_classifiers.get(entity)
            if ec is None:
                raise CompileError(
                    f"source {source.name!r} lacks an entity classifier for "
                    f"{entity!r}"
                )
            prefix = f"{entity}__{source.name}"

            # Stage 1: extract — the entity classifier's g-tree query, read
            # through the source like a Study.run preview.  Building the
            # query validates it; translation waits for the first read.
            query = GTreeQuery(source.gtree(ec.form)).where(ec.condition)
            workflow.add(
                f"{prefix}__extract",
                Extract(source, query),
                stage="extract",
            )
            previous = f"{prefix}__extract"
            if any(rule.scope == "record" for rule in cleaning_rules):
                workflow.add(
                    f"{prefix}__clean",
                    Clean(cleaning_rules, source.name, "record", quarantine),
                    inputs=(previous,),
                    stage="extract",
                )
                previous = f"{prefix}__clean"

            # Stage 2: classify — one component per selected element.
            for element in study.elements_of(entity):
                classifier = binding.classifiers.get(element)
                if classifier is None:
                    raise CompileError(
                        f"source {source.name!r} has no classifier for {element}"
                    )
                _, attribute, domain_name = element
                column = element_column(attribute, domain_name)
                domain = study.schema.domain_of(*element)
                step_name = f"{prefix}__classify__{column}"
                workflow.add(
                    step_name,
                    Classify(column, classifier, domain),
                    inputs=(previous,),
                    stage="classify",
                )
                previous = step_name
            workflow.add(
                f"{prefix}__stamp",
                AddConstant("source", source.name),
                inputs=(previous,),
                stage="classify",
            )
            previous = f"{prefix}__stamp"
            if study.has_parent_link(entity):
                workflow.add(
                    f"{prefix}__link",
                    DeriveColumn(PARENT_RECORD_ID, Identifier.of(ec.parent_link)),
                    inputs=(previous,),
                    stage="classify",
                )
                previous = f"{prefix}__link"
            workflow.add(
                f"{prefix}__shape",
                ProjectColumns(study.output_columns(entity)),
                inputs=(previous,),
                stage="classify",
            )
            branch_heads.append(f"{prefix}__shape")

        # Stage 3: study — union, filter, load.
        workflow.add(
            f"{entity}__union",
            UnionInputs(),
            inputs=tuple(branch_heads),
            stage="study",
        )
        previous = f"{entity}__union"
        if any(rule.scope == "study" for rule in cleaning_rules):
            workflow.add(
                f"{entity}__clean",
                Clean(cleaning_rules, "study", "study", quarantine),
                inputs=(previous,),
                stage="study",
            )
            previous = f"{entity}__clean"
        condition = study.filters.get(entity)
        if condition is not None:
            workflow.add(
                f"{entity}__filter",
                FilterRows(condition),
                inputs=(previous,),
                stage="study",
            )
            previous = f"{entity}__filter"
        load_name = f"{entity}__load"
        workflow.add(
            load_name,
            Load(warehouse, study_table_schema(study, entity)),
            inputs=(previous,),
            stage="study",
        )
        workflow.mark_output(load_name)
    return workflow
