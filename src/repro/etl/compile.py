"""Compiling studies into ETL workflows (paper Figure 6, Hypothesis 3).

"At present, a study created over GUAVA and MultiClass has a logical
translation to a sequence of three ETL components, each executing a query
over the previous one's results."  The three stages, as compiled here:

1. **extract** and 2. **classify** — one :class:`Extract` per source and
   entity.  GUAVA translates the entity classifier's g-tree query through
   the design-pattern chain, and the study's row map
   (:meth:`~repro.multiclass.study.Study.row_map`) applies record-scoped
   cleaning, every bound domain classifier and the output shape inside
   that read.  The two temporary databases of Figure 6 are the read's
   rows and the memoized mapped rows, so a publish classifies nothing a
   preview at the same data version already classified.  The publish
   gets those rows shared, not copied (read-only, see
   :meth:`~repro.guava.source.GuavaSource.execute`): the one copy on the
   way to the warehouse is the one the load stores.
3. **study** — union across contributors, study-scoped cleaning, the
   study's WHERE-like filters, and the load into the warehouse.

The compiled workflow is *behaviourally equivalent* to
:meth:`repro.multiclass.study.Study.run` — the executable statement of
Hypothesis 3, checked by integration tests and the H3 benchmark.
"""

from __future__ import annotations

from repro.errors import CompileError, StudyError
from repro.etl.components import Clean, Extract, FilterRows, Load, UnionInputs
from repro.multiclass.cleaning import Quarantine
from repro.etl.workflow import Workflow
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
    """Translate a study into its Figure 6 ETL workflow."""
    if not study.bindings:
        raise CompileError(f"study {study.name!r} has no sources bound")
    if not study.elements:
        raise CompileError(f"study {study.name!r} selects no elements")
    workflow = Workflow(f"etl_{study.name}")
    quarantine = Quarantine()
    workflow.context["quarantine"] = quarantine
    for entity in study.entities_in_play():
        cleaning_rules = study.cleaning.get(entity, [])
        linked = study.has_parent_link(entity)
        branch_heads: list[str] = []
        for binding in study.bindings:
            source = binding.source
            ec = binding.entity_classifier(entity)
            if ec is None:
                raise CompileError(
                    f"source {source.name!r} lacks an entity classifier for "
                    f"{entity!r}"
                )
            # Stages 1 and 2: the entity classifier's g-tree query, read
            # through the source with the study's row map, like a Study.run
            # preview: the binding's own query and kept map, unless the
            # study replaced their classifiers.  Building a query validates
            # it and building a map resolves every classifier; translation
            # waits for the first read.
            query = binding.query(entity)
            try:
                row_map = study.row_map(
                    binding, entity, ec.parent_link if linked else None
                )
            except StudyError as error:
                raise CompileError(str(error)) from error
            name = f"{entity}__{source.name}__extract"
            workflow.add(
                name, Extract(source, query, row_map, quarantine), stage="extract"
            )
            branch_heads.append(name)

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
