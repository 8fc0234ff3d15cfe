"""The paper's two motivating studies (§2), executable.

**Study 1**: "of all patients undergoing upper GI endoscopy, how many had
the indication of Asthma-specific ENT/Pulmonary Reflux symptoms?  Of
these, include only those with no history of renal failure and with
cardiopulmonary and abdominal examinations within normal limits.  How many
of these suffered the complication of transient hypoxia?  Of these, how
many required each of the following interventions: surgery, IV fluids, or
oxygen administration?"

**Study 2**: "Of all procedures on ex-smokers, how many had a complication
of hypoxia?" — run under three different ex-smoker definitions to show why
the definition must be a per-study classifier choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classifiers import standard_bindings
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical.sources import ClinicalWorld
from repro.multiclass.study import Study, StudyResult

Row = dict[str, object]


def build_cohort_study(
    name: str,
    world: ClinicalWorld,
    elements: list[tuple[str, str]],
    ex_smoker_definition: str = "ever",
    habits_variant: str = "cancer",
    description: str = "",
) -> Study:
    """A Procedure-level study selecting ``(attribute, domain)`` elements."""
    study = Study(name, build_endoscopy_schema(), description=description)
    for attribute, domain in elements:
        study.add_element("Procedure", attribute, domain)
    standard_bindings(
        study,
        world.sources,
        ex_smoker_definition=ex_smoker_definition,
        habits_variant=habits_variant,
    )
    return study


# ---------------------------------------------------------------------------
# Study 1


@dataclass
class Study1Funnel:
    """The funnel counts Study 1 reports."""

    upper_gi: int = 0
    with_indication: int = 0
    clean_history_and_exams: int = 0
    transient_hypoxia: int = 0
    interventions: dict[str, int] = field(default_factory=dict)

    def as_rows(self) -> list[dict[str, object]]:
        rows = [
            {"stage": "upper GI endoscopy", "count": self.upper_gi},
            {"stage": "+ asthma/reflux indication", "count": self.with_indication},
            {
                "stage": "+ no renal failure, exams WNL",
                "count": self.clean_history_and_exams,
            },
            {"stage": "+ transient hypoxia", "count": self.transient_hypoxia},
        ]
        for intervention, count in self.interventions.items():
            rows.append({"stage": f"  needing {intervention}", "count": count})
        return rows


STUDY1_ELEMENTS = [
    ("ProcedureType", "proc_type"),
    ("Indication", "indication"),
    ("RenalFailureHistory", "flag"),
    ("CardioExamNormal", "flag"),
    ("AbdominalExamNormal", "flag"),
    ("TransientHypoxia", "flag"),
    ("SurgeryPerformed", "flag"),
    ("IVFluidsGiven", "flag"),
    ("OxygenGiven", "flag"),
]


def build_study1(world: ClinicalWorld) -> Study:
    return build_cohort_study(
        "study1_hypoxia_interventions",
        world,
        STUDY1_ELEMENTS,
        description="Study 1 (§2): hypoxia interventions after upper GI "
        "endoscopy for asthma/reflux",
    )


def run_study1(world: ClinicalWorld, result: StudyResult | None = None) -> Study1Funnel:
    """Execute Study 1 and compute the funnel."""
    if result is None:
        result = build_study1(world).run()
    rows = result.rows("Procedure")
    funnel = Study1Funnel()
    stage1 = [r for r in rows if r["ProcedureType_proc_type"] == "Upper GI endoscopy"]
    funnel.upper_gi = len(stage1)
    stage2 = [
        r
        for r in stage1
        if r["Indication_indication"]
        == "Asthma-specific ENT/Pulmonary Reflux symptoms"
    ]
    funnel.with_indication = len(stage2)
    stage3 = [
        r
        for r in stage2
        if r["RenalFailureHistory_flag"] is False
        and r["CardioExamNormal_flag"] is True
        and r["AbdominalExamNormal_flag"] is True
    ]
    funnel.clean_history_and_exams = len(stage3)
    stage4 = [r for r in stage3 if r["TransientHypoxia_flag"] is True]
    funnel.transient_hypoxia = len(stage4)
    funnel.interventions = {
        "surgery": sum(1 for r in stage4 if r["SurgeryPerformed_flag"] is True),
        "IV fluids": sum(1 for r in stage4 if r["IVFluidsGiven_flag"] is True),
        "oxygen": sum(1 for r in stage4 if r["OxygenGiven_flag"] is True),
    }
    return funnel


def study1_truth_funnel(world: ClinicalWorld) -> Study1Funnel:
    """The same funnel computed directly from ground truth."""
    funnel = Study1Funnel()
    stage1 = [t for t in world.truths if t.procedure_type == "Upper GI endoscopy"]
    funnel.upper_gi = len(stage1)
    stage2 = [
        t
        for t in stage1
        if t.indication == "Asthma-specific ENT/Pulmonary Reflux symptoms"
    ]
    funnel.with_indication = len(stage2)
    stage3 = [
        t
        for t in stage2
        if not t.patient.renal_failure_history
        and t.cardio_exam_normal
        and t.abdominal_exam_normal
    ]
    funnel.clean_history_and_exams = len(stage3)
    stage4 = [t for t in stage3 if t.had_transient_hypoxia]
    funnel.transient_hypoxia = len(stage4)
    funnel.interventions = {
        "surgery": sum(1 for t in stage4 if "Surgery" in t.interventions),
        "IV fluids": sum(1 for t in stage4 if "IV fluids" in t.interventions),
        "oxygen": sum(
            1 for t in stage4 if "Oxygen administration" in t.interventions
        ),
    }
    return funnel


# ---------------------------------------------------------------------------
# Study 2


STUDY2_ELEMENTS = [
    ("ExSmoker", "flag"),
    ("AnyHypoxia", "flag"),
]


@dataclass
class Study2Result:
    """Study 2 counts under one ex-smoker definition."""

    definition: str
    ex_smokers: int
    ex_smokers_with_hypoxia: int

    @property
    def rate(self) -> float:
        return (
            self.ex_smokers_with_hypoxia / self.ex_smokers if self.ex_smokers else 0.0
        )


def build_study2(world: ClinicalWorld, definition: str = "ever") -> Study:
    return build_cohort_study(
        f"study2_exsmokers_{definition}",
        world,
        STUDY2_ELEMENTS,
        ex_smoker_definition=definition,
        description=f"Study 2 (§2): hypoxia among ex-smokers (definition: "
        f"quit {definition})",
    )


def run_study2(world: ClinicalWorld, definition: str = "ever") -> Study2Result:
    """Execute Study 2 under one ex-smoker definition."""
    result = build_study2(world, definition).run()
    rows = result.rows("Procedure")
    ex_rows = [r for r in rows if r["ExSmoker_flag"] is True]
    with_hypoxia = [r for r in ex_rows if r["AnyHypoxia_flag"] is True]
    return Study2Result(definition, len(ex_rows), len(with_hypoxia))


def study2_truth(world: ClinicalWorld, definition: str = "ever") -> Study2Result:
    """Study 2 computed from ground truth."""
    within = {"1y": 1.0, "10y": 10.0, "ever": None}[definition]
    ex = [t for t in world.truths if t.patient.smoking.is_ex_smoker(within)]
    with_hypoxia = [t for t in ex if t.had_any_hypoxia]
    return Study2Result(definition, len(ex), len(with_hypoxia))
