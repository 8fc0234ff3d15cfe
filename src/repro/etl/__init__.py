"""ETL workflows and the study compiler.

"MultiClass uses the specifications set out by the analyst to create an
ETL workflow that is tailored to a specific study.  Thus, we can leverage
existing ETL and still offer the flexibility that analysts require."

:mod:`repro.etl.components` provides the common ETL component vocabulary,
:mod:`repro.etl.workflow` the DAG executor with per-step run logs, and
:mod:`repro.etl.compile` the Figure 6 translation: study → one classifying
extract per contributor, then union, clean, filter and load.
"""

from repro.etl.components import (
    AddConstant,
    Clean,
    Component,
    DeriveColumn,
    Extract,
    FilterRows,
    Load,
    ProjectColumns,
    UnionInputs,
    Values,
)
from repro.etl.workflow import RunReport, Step, Workflow
from repro.etl.compile import compile_study, domain_data_type

__all__ = [
    "AddConstant",
    "Clean",
    "Component",
    "DeriveColumn",
    "Extract",
    "FilterRows",
    "Load",
    "ProjectColumns",
    "RunReport",
    "Step",
    "UnionInputs",
    "Values",
    "Workflow",
    "compile_study",
    "domain_data_type",
]
