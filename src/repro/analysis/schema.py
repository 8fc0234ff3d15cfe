"""The endoscopy study schema (paper Figure 4, extended for the studies).

One study schema serves all of CORI's studies — "we expect that CORI would
only need to have one study schema" — with the Procedure entity at the top
of the has-a tree and Finding / New Medication beneath it.  The Smoking
attribute carries the three domains of Table 2.

The schema is built and frozen once, at import (:data:`ENDOSCOPY_SCHEMA`):
every study shares it, so a study build makes no schema and the bindings
can keep the row maps derived from it.
"""

from __future__ import annotations

from repro.clinical.vocabulary import INDICATIONS, PROCEDURE_TYPES
from repro.multiclass.domain import Domain
from repro.multiclass.study_schema import Entity, StudySchema

#: Table 2 domain 1: positive packs smoked per day.
PACKS_PER_DAY = Domain.real(
    "packs_per_day", "Number of packs smoked per day", minimum=0
)
#: Table 2 domain 2: no smoking, current smoker, or has smoked in the past.
STATUS3 = Domain.categorical(
    "status3", ["None", "Current", "Previous"], "No smoking / current / past"
)
#: Table 2 domain 3: general classification of smoking habits.
HABITS4 = Domain.categorical(
    "habits4",
    ["None", "Light", "Moderate", "Heavy"],
    "General classification of smoking habits",
)

FLAG = Domain.boolean("flag", "Yes/no")

# The other domains of the schema.  Module constants, so the schema and its
# copies hold the same Domain objects and row-map keys reuse their
# fingerprints.
PROC_TYPE = Domain.categorical("proc_type", list(PROCEDURE_TYPES))
INDICATION = Domain.categorical("indication", list(INDICATIONS))
YEAR = Domain.integer(
    "year", "Calendar year the procedure took place", minimum=1990, maximum=2100
)
ALCOHOL3 = Domain.categorical("alcohol3", ["None", "Light", "Heavy"])
FINDING_TYPE = Domain.categorical(
    "finding_type", ["Fissure", "Polyp", "Ulcer", "Tumor", "Varices"]
)
MM = Domain.integer("mm", minimum=0)
CUBIC_MM = Domain.real("cubic_mm", "Estimated volume", minimum=0)
NAME = Domain.text("name")
MG = Domain.integer("mg", minimum=0)
PER_DAY = Domain.integer("per_day", minimum=0)


def build_endoscopy_schema() -> StudySchema:
    """The shared CORI study schema: :data:`ENDOSCOPY_SCHEMA` itself.

    Frozen, so ``add_attribute``, ``add_domain`` and ``add_child`` on it
    raise :class:`~repro.errors.StudySchemaError` and its attribute and
    domain maps are read-only.  A caller that changes the schema (a test
    widening a domain, an analyst growing it for a new study) takes an
    explicit copy, ``build_endoscopy_schema().copy()``, and hands that to
    its study or job; the constant stays as it is.
    """
    return ENDOSCOPY_SCHEMA


def _endoscopy_schema() -> StudySchema:
    procedure = Entity("Procedure", description="The primary entity of interest")
    procedure.add_attribute("ProcedureType", PROC_TYPE)
    procedure.add_attribute("Indication", INDICATION)
    procedure.add_attribute("ProcedureYear", YEAR)
    procedure.add_attribute("TransientHypoxia", FLAG)
    procedure.add_attribute("ProlongedHypoxia", FLAG)
    procedure.add_attribute("AnyHypoxia", FLAG)
    procedure.add_attribute("RenalFailureHistory", FLAG)
    procedure.add_attribute("CardioExamNormal", FLAG)
    procedure.add_attribute("AbdominalExamNormal", FLAG)
    procedure.add_attribute("SurgeryPerformed", FLAG)
    procedure.add_attribute("IVFluidsGiven", FLAG)
    procedure.add_attribute("OxygenGiven", FLAG)
    procedure.add_attribute("Smoking", PACKS_PER_DAY, STATUS3, HABITS4)
    procedure.add_attribute("ExSmoker", FLAG)
    procedure.add_attribute("Alcohol", ALCOHOL3)

    finding = Entity("Finding", description="One endoscopic finding")
    finding.add_attribute("FindingType", FINDING_TYPE)
    finding.add_attribute("SizeMm", MM)
    finding.add_attribute("ImagesTaken", FLAG)
    finding.add_attribute("TumorVolume", CUBIC_MM)
    procedure.add_child(finding)

    medication = Entity("NewMedication", description="Figure 4 fidelity entity")
    medication.add_attribute("Drug", NAME)
    medication.add_attribute("DosageMg", MG)
    medication.add_attribute("PillsPerDay", PER_DAY)
    procedure.add_child(medication)

    schema = StudySchema("endoscopy", procedure)
    schema.annotate(
        "cori-analyst-team",
        "created study schema",
        "shared schema for all CORI endoscopy studies (paper Figure 4)",
    )
    return schema.freeze()


#: "We expect that CORI would only need to have one study schema."
ENDOSCOPY_SCHEMA = _endoscopy_schema()
