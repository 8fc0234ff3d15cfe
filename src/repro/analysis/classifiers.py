"""Classifier sets relating each contributor's g-tree to the study schema.

This module is the analyst's work product: for every vendor tool, one
classifier per (attribute, domain) the CORI studies need, written against
that tool's g-tree nodes and informed by each control's context (question
wording, options, enablement).  The alternative classifiers for smoking
habits (cancer vs chemistry cutoffs, Figure 5a) and for the ex-smoker
definition (quit within 1 year / 10 years / ever) demonstrate why
MultiClass lets several classifiers target the same domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable
from weakref import WeakKeyDictionary

from repro.clinical.vocabulary import INDICATIONS
from repro.errors import StudyError
from repro.guava.source import GuavaSource
from repro.multiclass.classifier import Classifier, EntityClassifier, Rule
from repro.multiclass.study import SourceBinding, Study

#: The (attribute, domain) pairs a vendor defines several classifiers for,
#: and what a choice among them is called.
HABITS = ("Smoking", "habits4")
EX_SMOKER = ("ExSmoker", "flag")
VARIANTS = {HABITS: "habits variant", EX_SMOKER: "ex-smoker definition"}

#: A catalogue key: ((attribute, domain), variant); the variant is None for
#: a pair with one definition.
Key = tuple[tuple[str, str], str | None]

#: What a study selects from a catalogue: its elements, then the variant
#: asked for of each pair in :data:`VARIANTS`, in that order (used only
#: when the study selects the pair).
Selection = tuple[tuple[tuple[str, str, str], ...], str, str]


@dataclass(frozen=True)
class ClassifierDefinition:
    """One catalogue entry: a classifier written down, built on demand.

    A definition is immutable and shared; its rule texts are parsed when
    it is written down (:func:`_define`, at import for the catalogues), so
    an error in a text surfaces there and no study build parses.  Every
    :meth:`build` returns a new :class:`Classifier` the caller owns,
    holding the shared ``Rule`` objects in a list of its own;
    :attr:`bound` is the one frozen classifier every shared binding holds.
    """

    name: str
    attribute: str
    domain: str
    rules: tuple[Rule, ...]
    description: str = ""
    entity: str = "Procedure"

    def build(self) -> Classifier:
        return Classifier(
            name=self.name,
            target_entity=self.entity,
            target_attribute=self.attribute,
            target_domain=self.domain,
            rules=list(self.rules),
            description=self.description,
        )

    @cached_property
    def bound(self) -> Classifier:
        return self.build().frozen()


def _define(
    name: str,
    attribute: str,
    domain: str,
    rules: list[tuple[str, str]],
    description: str = "",
    entity: str = "Procedure",
) -> ClassifierDefinition:
    parsed = tuple(Rule.of(output, guard) for output, guard in rules)
    return ClassifierDefinition(name, attribute, domain, parsed, description, entity)


def _flag_from_checkbox(
    name: str, attribute: str, node: str, description: str = ""
) -> ClassifierDefinition:
    """Boolean attribute mirrored from one checkbox node."""
    return _define(
        name,
        attribute,
        "flag",
        [(node, f"{node} IS NOT NULL")],
        description or f"direct read of checkbox {node!r}",
    )


def _flag_from_list(
    name: str, attribute: str, list_node: str, item: str, description: str = ""
) -> ClassifierDefinition:
    """Boolean attribute: is ``item`` among a CheckList's selections?"""
    return _define(
        name,
        attribute,
        "flag",
        [
            ("TRUE", f"CONTAINS({list_node}, '{item}')"),
            ("FALSE", f"{list_node} IS NULL"),
            ("FALSE", f"NOT CONTAINS({list_node}, '{item}')"),
        ],
        description or f"membership of {item!r} in {list_node}",
    )


@dataclass
class VendorClassifiers:
    """One vendor's classifiers, with the alternative definitions split out."""

    entity_classifier: EntityClassifier
    base: list[Classifier] = field(default_factory=list)
    habits_cancer: Classifier | None = None
    habits_chemistry: Classifier | None = None
    ex_smoker_1y: Classifier | None = None
    ex_smoker_10y: Classifier | None = None
    ex_smoker_ever: Classifier | None = None

    def ex_smoker(self, definition: str) -> Classifier:
        chosen = {
            "1y": self.ex_smoker_1y,
            "10y": self.ex_smoker_10y,
            "ever": self.ex_smoker_ever,
        }.get(definition)
        if chosen is None:
            raise StudyError(f"unknown ex-smoker definition {definition!r}")
        return chosen

    def habits(self, variant: str) -> Classifier:
        chosen = {
            "cancer": self.habits_cancer,
            "chemistry": self.habits_chemistry,
        }.get(variant)
        if chosen is None:
            raise StudyError(f"unknown habits variant {variant!r}")
        return chosen


@dataclass(frozen=True)
class VendorCatalogue:
    """One vendor's classifier definitions, keyed by what they target.

    It also holds the checked bindings :meth:`binding` hands out: per
    source, held weakly so a dropped source drops its bindings, then per
    selection.
    """

    entity_classifier: Callable[[], EntityClassifier]
    #: Catalogue order: the base definitions, the habits variants, the
    #: ex-smoker definitions.
    definitions: dict[Key, ClassifierDefinition]
    bindings: WeakKeyDictionary[GuavaSource, dict[Selection, SourceBinding]] = (
        field(default_factory=WeakKeyDictionary, compare=False, repr=False)
    )

    @classmethod
    def of(
        cls,
        entity_classifier: Callable[[], EntityClassifier],
        base: list[ClassifierDefinition],
        habits: dict[str, ClassifierDefinition],
        ex_smoker: dict[str, ClassifierDefinition],
    ) -> "VendorCatalogue":
        definitions: dict[Key, ClassifierDefinition] = {
            ((d.attribute, d.domain), None): d for d in base
        }
        for pair, variants in ((HABITS, habits), (EX_SMOKER, ex_smoker)):
            for variant, definition in variants.items():
                definitions[(pair, variant)] = definition
        return cls(entity_classifier, definitions)

    def classifiers(self) -> VendorClassifiers:
        """Every classifier of the catalogue, newly built."""
        built = {key: d.build() for key, d in self.definitions.items()}
        return VendorClassifiers(
            entity_classifier=self.entity_classifier(),
            base=[c for (_, variant), c in built.items() if variant is None],
            habits_cancer=built[(HABITS, "cancer")],
            habits_chemistry=built[(HABITS, "chemistry")],
            ex_smoker_1y=built[(EX_SMOKER, "1y")],
            ex_smoker_10y=built[(EX_SMOKER, "10y")],
            ex_smoker_ever=built[(EX_SMOKER, "ever")],
        )

    @cached_property
    def bound_entity_classifier(self) -> EntityClassifier:
        return self.entity_classifier().frozen()

    def binding(self, source: GuavaSource, selection: Selection) -> SourceBinding:
        """The one checked binding of ``selection`` over ``source``.

        Made and checked (:meth:`SourceBinding.check`) on first use, and
        again once the source serves new g-trees (a redeployed tool).  Its
        classifiers are the definitions' frozen :attr:`~ClassifierDefinition.bound`
        ones, in catalogue order.  An unknown variant of a wanted pair
        raises :class:`~repro.errors.StudyError`; no binding is kept for it.
        """
        kept = self.bindings.get(source)
        if kept is None:
            kept = self.bindings[source] = {}
        binding = kept.get(selection)
        if binding is None or not binding.is_current():
            elements, *variants = selection
            wanted = {(attribute, domain) for _, attribute, domain in elements}
            chosen = dict(zip(VARIANTS, variants))
            for pair, kind in VARIANTS.items():
                if pair in wanted and (pair, chosen[pair]) not in self.definitions:
                    raise StudyError(f"unknown {kind} {chosen[pair]!r}")
            classifiers = [
                definition.bound
                for (pair, variant), definition in self.definitions.items()
                if pair in wanted and variant == chosen.get(pair)
            ]
            binding = kept[selection] = SourceBinding.check(
                source, [self.bound_entity_classifier], classifiers
            )
        return binding


# ---------------------------------------------------------------------------
# CORI


def cori_entity_classifier() -> EntityClassifier:
    return EntityClassifier(
        "cori_all_procedures",
        "Procedure",
        "procedure",
        condition="TRUE",
        description="every saved CORI procedure report",
    )


def _cori_catalogue() -> VendorCatalogue:
    """Classifiers for the CORI tool's g-tree."""
    base = [
        _define(
            "cori_proc_type", "ProcedureType", "proc_type",
            [("procedure_type", "procedure_type IS NOT NULL")],
            "the procedure drop-down already uses study vocabulary",
        ),
        _define(
            "cori_indication", "Indication", "indication",
            [("indication", "indication IS NOT NULL")],
        ),
        _define(
            "cori_year", "ProcedureYear", "year",
            [("YEAR(procedure_date)", "procedure_date IS NOT NULL")],
            "calendar year extracted from the date picker",
        ),
        _flag_from_checkbox("cori_transient_hypoxia", "TransientHypoxia", "transient_hypoxia"),
        _flag_from_checkbox("cori_prolonged_hypoxia", "ProlongedHypoxia", "prolonged_hypoxia"),
        _define(
            "cori_any_hypoxia", "AnyHypoxia", "flag",
            [
                ("TRUE", "transient_hypoxia = TRUE OR prolonged_hypoxia = TRUE"),
                ("FALSE", "transient_hypoxia = FALSE AND prolonged_hypoxia = FALSE"),
            ],
        ),
        _flag_from_checkbox("cori_renal", "RenalFailureHistory", "renal_failure"),
        _flag_from_checkbox("cori_cardio", "CardioExamNormal", "cardio_wnl"),
        _flag_from_checkbox("cori_abdo", "AbdominalExamNormal", "abdominal_wnl"),
        _flag_from_list("cori_surgery", "SurgeryPerformed", "interventions", "Surgery"),
        _flag_from_list("cori_iv", "IVFluidsGiven", "interventions", "IV fluids"),
        _flag_from_list(
            "cori_oxygen", "OxygenGiven", "interventions", "Oxygen administration"
        ),
        _define(
            "cori_packs", "Smoking", "packs_per_day",
            [
                ("packs_per_day", "packs_per_day IS NOT NULL"),
                ("0", "smoking = 'Never'"),
            ],
            "frequency box only enables once the smoking question is answered",
        ),
        _define(
            "cori_status3", "Smoking", "status3",
            [
                ("'None'", "smoking = 'Never'"),
                ("'Current'", "smoking = 'Current'"),
                ("'Previous'", "smoking = 'Previous'"),
            ],
            "the CORI radio list matches domain 2 directly",
        ),
        _define(
            "cori_alcohol", "Alcohol", "alcohol3",
            [
                ("'None'", "alcohol = 'None'"),
                ("'Light'", "alcohol = 'Light'"),
                ("'Heavy'", "alcohol = 'Heavy'"),
            ],
            "free-text answers remain unclassified by design",
        ),
    ]
    habits_cancer = _define(
        "cori_habits_cancer", "Smoking", "habits4",
        [
            ("'None'", "smoking = 'Never' OR packs_per_day = 0"),
            ("'Light'", "packs_per_day > 0 AND packs_per_day < 2"),
            ("'Moderate'", "packs_per_day >= 2 AND packs_per_day < 5"),
            ("'Heavy'", "packs_per_day >= 5"),
        ],
        "Classifies packs per day according to conversations with cancer "
        "study on 5/3/02 (paper Figure 5a)",
    )
    habits_chemistry = _define(
        "cori_habits_chemistry", "Smoking", "habits4",
        [
            ("'None'", "smoking = 'Never' OR packs_per_day = 0"),
            ("'Light'", "packs_per_day > 0 AND packs_per_day < 1"),
            ("'Moderate'", "packs_per_day >= 1 AND packs_per_day < 2"),
            ("'Heavy'", "packs_per_day >= 2"),
        ],
        "Classifies packs per day according to flier from chemical studies "
        "(paper Figure 5a)",
    )
    ex_1y = _define(
        "cori_ex_smoker_1y", "ExSmoker", "flag",
        [
            ("TRUE", "smoking = 'Previous' AND quit_years_ago <= 1"),
            ("FALSE", "smoking != 'Previous'"),
            ("FALSE", "quit_years_ago > 1"),
        ],
        "ex-smoker = quit within the last year",
    )
    ex_10y = _define(
        "cori_ex_smoker_10y", "ExSmoker", "flag",
        [
            ("TRUE", "smoking = 'Previous' AND quit_years_ago <= 10"),
            ("FALSE", "smoking != 'Previous'"),
            ("FALSE", "quit_years_ago > 10"),
        ],
        "ex-smoker = quit within the last ten years",
    )
    ex_ever = _define(
        "cori_ex_smoker_ever", "ExSmoker", "flag",
        [
            ("TRUE", "smoking = 'Previous'"),
            ("FALSE", "smoking != 'Previous'"),
        ],
        "ex-smoker = has quit at any time",
    )
    return VendorCatalogue.of(
        cori_entity_classifier,
        base,
        habits={"cancer": habits_cancer, "chemistry": habits_chemistry},
        ex_smoker={"1y": ex_1y, "10y": ex_10y, "ever": ex_ever},
    )


def cori_finding_classifiers() -> tuple[EntityClassifier, list[Classifier]]:
    """Classifiers for CORI's finding form (includes Figure 5b's volume)."""
    entity = EntityClassifier(
        "cori_all_findings",
        "Finding",
        "finding",
        condition="TRUE",
        description="every recorded endoscopic finding",
        parent_link="procedure_id",
    )
    definitions = [
        _define(
            "cori_finding_type", "FindingType", "finding_type",
            [("finding_type", "finding_type IS NOT NULL")],
            entity="Finding",
        ),
        _define(
            "cori_finding_size", "SizeMm", "mm",
            [("size_mm", "size_mm IS NOT NULL")],
            entity="Finding",
        ),
        _define(
            "cori_finding_images", "ImagesTaken", "flag",
            [("images_taken", "images_taken IS NOT NULL")],
            entity="Finding",
        ),
        _define(
            "cori_tumor_volume", "TumorVolume", "cubic_mm",
            [("size_mm * size_mm * size_mm * 0.52",
              "finding_type = 'Tumor' AND size_mm > 0")],
            "Estimates tumor volume from size. Assumes 52% occupancy from "
            "sphere-to-cube ratio (paper Figure 5b adapted to one dimension)",
            entity="Finding",
        ),
    ]
    return entity, [definition.build() for definition in definitions]


def cori_medication_classifiers() -> tuple[EntityClassifier, list[Classifier]]:
    """Classifiers for CORI's new-medication form (Figure 4's third entity)."""
    entity = EntityClassifier(
        "cori_all_medications",
        "NewMedication",
        "medication",
        condition="TRUE",
        description="every newly prescribed medication",
        parent_link="procedure_id",
    )
    definitions = [
        _define(
            "cori_drug", "Drug", "name",
            [("drug", "drug IS NOT NULL")],
            entity="NewMedication",
        ),
        _define(
            "cori_dosage", "DosageMg", "mg",
            [("dosage_mg", "dosage_mg IS NOT NULL")],
            entity="NewMedication",
        ),
        _define(
            "cori_pills", "PillsPerDay", "per_day",
            [("pills_per_day", "pills_per_day IS NOT NULL")],
            entity="NewMedication",
        ),
    ]
    return entity, [definition.build() for definition in definitions]


# ---------------------------------------------------------------------------
# EndoPro


def endopro_entity_classifier() -> EntityClassifier:
    return EntityClassifier(
        "endopro_reports",
        "Procedure",
        "endoscopy_report",
        condition="TRUE",
        description="every EndoPro procedure report",
    )


def _endopro_catalogue() -> VendorCatalogue:
    """Classifiers for EndoPro: ``smoker`` means *currently smokes*."""
    base = [
        _define(
            "endopro_proc_type", "ProcedureType", "proc_type",
            [("proc_kind", "proc_kind IS NOT NULL")],
        ),
        _define(
            "endopro_indication", "Indication", "indication",
            [("reason", "reason IS NOT NULL")],
        ),
        _flag_from_list(
            "endopro_transient_hypoxia", "TransientHypoxia",
            "complication_list", "Transient hypoxia",
        ),
        _flag_from_list(
            "endopro_prolonged_hypoxia", "ProlongedHypoxia",
            "complication_list", "Prolonged hypoxia",
        ),
        _flag_from_list(
            "endopro_any_hypoxia", "AnyHypoxia", "complication_list", "hypoxia"
        ),
        _flag_from_checkbox("endopro_renal", "RenalFailureHistory", "renal_hx"),
        _define(
            "endopro_cardio", "CardioExamNormal", "flag",
            [
                ("TRUE", "cardio_exam = 'WNL'"),
                ("FALSE", "cardio_exam = 'Abnormal'"),
            ],
            "'Not examined' stays unclassified rather than guessed",
        ),
        _define(
            "endopro_abdo", "AbdominalExamNormal", "flag",
            [
                ("TRUE", "abdominal_exam = 'WNL'"),
                ("FALSE", "abdominal_exam = 'Abnormal'"),
            ],
        ),
        _flag_from_list(
            "endopro_surgery", "SurgeryPerformed", "intervention_list", "Surgery"
        ),
        _flag_from_list(
            "endopro_iv", "IVFluidsGiven", "intervention_list", "IV fluids"
        ),
        _flag_from_list(
            "endopro_oxygen", "OxygenGiven", "intervention_list",
            "Oxygen administration",
        ),
        _define(
            "endopro_packs", "Smoking", "packs_per_day",
            [
                ("cigarettes_per_day / 20", "smoker = TRUE"),
                ("0", "smoker = FALSE AND former_smoker = FALSE"),
            ],
            "EndoPro counts cigarettes; 20 per pack.  Ex-smokers' historic "
            "frequency is not captured by this tool and stays unclassified",
        ),
        _define(
            "endopro_status3", "Smoking", "status3",
            [
                ("'Current'", "smoker = TRUE"),
                ("'Previous'", "former_smoker = TRUE"),
                ("'None'", "smoker = FALSE AND former_smoker = FALSE"),
            ],
            "the g-tree shows 'smoker' asks about CURRENT smoking only",
        ),
        _define(
            "endopro_alcohol", "Alcohol", "alcohol3",
            [
                ("'None'", "STARTSWITH(alcohol_notes, 'None')"),
                ("'Light'", "STARTSWITH(alcohol_notes, 'Light')"),
                ("'Heavy'", "STARTSWITH(alcohol_notes, 'Heavy')"),
            ],
            "vendor records alcohol as free text",
        ),
    ]
    habits_cancer = _define(
        "endopro_habits_cancer", "Smoking", "habits4",
        [
            ("'None'", "smoker = FALSE AND former_smoker = FALSE"),
            ("'Light'", "smoker = TRUE AND cigarettes_per_day > 0 AND cigarettes_per_day < 40"),
            ("'Moderate'", "smoker = TRUE AND cigarettes_per_day >= 40 AND cigarettes_per_day < 100"),
            ("'Heavy'", "smoker = TRUE AND cigarettes_per_day >= 100"),
            ("'None'", "smoker = TRUE AND cigarettes_per_day = 0"),
        ],
        "cancer-study cutoffs expressed in cigarettes (pack = 20)",
    )
    habits_chemistry = _define(
        "endopro_habits_chemistry", "Smoking", "habits4",
        [
            ("'None'", "smoker = FALSE AND former_smoker = FALSE"),
            ("'Light'", "smoker = TRUE AND cigarettes_per_day > 0 AND cigarettes_per_day < 20"),
            ("'Moderate'", "smoker = TRUE AND cigarettes_per_day >= 20 AND cigarettes_per_day < 40"),
            ("'Heavy'", "smoker = TRUE AND cigarettes_per_day >= 40"),
            ("'None'", "smoker = TRUE AND cigarettes_per_day = 0"),
        ],
        "chemistry-flier cutoffs expressed in cigarettes",
    )
    ex_1y = _define(
        "endopro_ex_smoker_1y", "ExSmoker", "flag",
        [
            ("TRUE", "former_smoker = TRUE AND years_since_quit <= 1"),
            ("FALSE", "smoker = TRUE"),
            ("FALSE", "former_smoker = FALSE"),
            ("FALSE", "years_since_quit > 1"),
        ],
    )
    ex_10y = _define(
        "endopro_ex_smoker_10y", "ExSmoker", "flag",
        [
            ("TRUE", "former_smoker = TRUE AND years_since_quit <= 10"),
            ("FALSE", "smoker = TRUE"),
            ("FALSE", "former_smoker = FALSE"),
            ("FALSE", "years_since_quit > 10"),
        ],
    )
    ex_ever = _define(
        "endopro_ex_smoker_ever", "ExSmoker", "flag",
        [
            ("TRUE", "former_smoker = TRUE"),
            ("FALSE", "smoker = TRUE"),
            ("FALSE", "former_smoker = FALSE"),
        ],
    )
    return VendorCatalogue.of(
        endopro_entity_classifier,
        base,
        habits={"cancer": habits_cancer, "chemistry": habits_chemistry},
        ex_smoker={"1y": ex_1y, "10y": ex_10y, "ever": ex_ever},
    )


# ---------------------------------------------------------------------------
# MedScribe


def medscribe_entity_classifier() -> EntityClassifier:
    return EntityClassifier(
        "medscribe_visits",
        "Procedure",
        "visit",
        condition="TRUE",
        description="every MedScribe visit record",
    )


def _medscribe_catalogue() -> VendorCatalogue:
    """Classifiers for MedScribe: ``smoker`` means *has EVER smoked*."""
    indication_guard = " OR ".join(
        f"indication_text = '{indication}'" for indication in INDICATIONS
    )
    base = [
        _define(
            "medscribe_proc_type", "ProcedureType", "proc_type",
            [("procedure_code", "procedure_code IS NOT NULL")],
        ),
        _define(
            "medscribe_indication", "Indication", "indication",
            [("indication_text", indication_guard)],
            "free-text indications only classify when they match study "
            "vocabulary exactly",
        ),
        _define(
            "medscribe_year", "ProcedureYear", "year",
            [("YEAR(visit_date)", "visit_date IS NOT NULL")],
        ),
        _flag_from_checkbox(
            "medscribe_transient_hypoxia", "TransientHypoxia", "c_hypoxia_transient"
        ),
        _flag_from_checkbox(
            "medscribe_prolonged_hypoxia", "ProlongedHypoxia", "c_hypoxia_prolonged"
        ),
        _define(
            "medscribe_any_hypoxia", "AnyHypoxia", "flag",
            [
                ("TRUE", "c_hypoxia_transient = TRUE OR c_hypoxia_prolonged = TRUE"),
                ("FALSE", "c_hypoxia_transient = FALSE AND c_hypoxia_prolonged = FALSE"),
            ],
        ),
        _flag_from_checkbox("medscribe_renal", "RenalFailureHistory", "renal_failure_hx"),
        _flag_from_checkbox("medscribe_cardio", "CardioExamNormal", "cardio_ok"),
        _flag_from_checkbox("medscribe_abdo", "AbdominalExamNormal", "abdomen_ok"),
        _flag_from_checkbox("medscribe_surgery", "SurgeryPerformed", "i_surgery"),
        _flag_from_checkbox("medscribe_iv", "IVFluidsGiven", "i_iv_fluids"),
        _flag_from_checkbox("medscribe_oxygen", "OxygenGiven", "i_oxygen"),
        _define(
            "medscribe_packs", "Smoking", "packs_per_day",
            [
                ("packs_daily", "smoker = TRUE AND packs_daily IS NOT NULL"),
                ("0", "smoker = FALSE"),
            ],
        ),
        _define(
            "medscribe_status3", "Smoking", "status3",
            [
                ("'Current'", "smoker = TRUE AND quit = FALSE"),
                ("'Previous'", "smoker = TRUE AND quit = TRUE"),
                ("'None'", "smoker = FALSE"),
            ],
            "the g-tree shows 'smoker' asks about EVER smoking; 'quit' "
            "separates current from past",
        ),
    ]
    habits_cancer = _define(
        "medscribe_habits_cancer", "Smoking", "habits4",
        [
            ("'None'", "smoker = FALSE OR packs_daily = 0"),
            ("'Light'", "packs_daily > 0 AND packs_daily < 2"),
            ("'Moderate'", "packs_daily >= 2 AND packs_daily < 5"),
            ("'Heavy'", "packs_daily >= 5"),
        ],
    )
    habits_chemistry = _define(
        "medscribe_habits_chemistry", "Smoking", "habits4",
        [
            ("'None'", "smoker = FALSE OR packs_daily = 0"),
            ("'Light'", "packs_daily > 0 AND packs_daily < 1"),
            ("'Moderate'", "packs_daily >= 1 AND packs_daily < 2"),
            ("'Heavy'", "packs_daily >= 2"),
        ],
    )
    ex_1y = _define(
        "medscribe_ex_smoker_1y", "ExSmoker", "flag",
        [
            ("TRUE", "quit = TRUE AND years_quit <= 1"),
            ("FALSE", "smoker = FALSE"),
            ("FALSE", "quit = FALSE"),
            ("FALSE", "years_quit > 1"),
        ],
    )
    ex_10y = _define(
        "medscribe_ex_smoker_10y", "ExSmoker", "flag",
        [
            ("TRUE", "quit = TRUE AND years_quit <= 10"),
            ("FALSE", "smoker = FALSE"),
            ("FALSE", "quit = FALSE"),
            ("FALSE", "years_quit > 10"),
        ],
    )
    ex_ever = _define(
        "medscribe_ex_smoker_ever", "ExSmoker", "flag",
        [
            ("TRUE", "quit = TRUE"),
            ("FALSE", "smoker = FALSE"),
            ("FALSE", "quit = FALSE"),
        ],
    )
    return VendorCatalogue.of(
        medscribe_entity_classifier,
        base,
        habits={"cancer": habits_cancer, "chemistry": habits_chemistry},
        ex_smoker={"1y": ex_1y, "10y": ex_10y, "ever": ex_ever},
    )


# ---------------------------------------------------------------------------
# Binding helper

_CATALOGUES = {
    "cori": _cori_catalogue(),
    "endopro": _endopro_catalogue(),
    "medscribe": _medscribe_catalogue(),
}


def cori_classifiers() -> VendorClassifiers:
    """Classifiers for the CORI tool's g-tree."""
    return _CATALOGUES["cori"].classifiers()


def endopro_classifiers() -> VendorClassifiers:
    """Classifiers for EndoPro: ``smoker`` means *currently smokes*."""
    return _CATALOGUES["endopro"].classifiers()


def medscribe_classifiers() -> VendorClassifiers:
    """Classifiers for MedScribe: ``smoker`` means *has EVER smoked*."""
    return _CATALOGUES["medscribe"].classifiers()


def _catalogue_for(source: GuavaSource) -> VendorCatalogue:
    catalogue = _CATALOGUES.get(source.tool.name)
    if catalogue is None:
        raise StudyError(f"no classifier set for tool {source.tool.name!r}")
    return catalogue


def vendor_classifiers_for(source: GuavaSource) -> VendorClassifiers:
    """The classifier set matching a clinical-world source.

    Every call builds every classifier of the vendor's catalogue anew, so
    the caller owns the objects it gets and may change them; only the
    immutable ``Rule`` objects (and their ASTs) are shared.  An unknown
    tool raises :class:`~repro.errors.StudyError`.
    """
    return _catalogue_for(source).classifiers()


def standard_bindings(
    study: Study,
    sources: list[GuavaSource],
    ex_smoker_definition: str = "ever",
    habits_variant: str = "cancer",
) -> None:
    """Attach to ``study`` each source's shared binding of its selection.

    The selection is the study's elements and the requested variants;
    only the classifiers of the elements' (attribute, domain) pairs are
    bound, in catalogue order, each pair that has several in its
    requested variant.  Each source's catalogue hands out one immutable,
    checked :class:`SourceBinding` per (source, selection) and g-tree
    objects (:meth:`VendorCatalogue.binding`), so a rebuilt study builds
    no classifier and runs no ``validate_against``: it attaches the
    bindings of the build before (:meth:`Study.attach` runs only the
    schema checks) and reads through their queries and kept row maps.
    The study gets its own view of each binding, so changing its
    classifier choices reaches no other study.  An unknown tool, or an
    unknown variant of a selected element, raises
    :class:`~repro.errors.StudyError`, on every call.
    """
    selection: Selection = (
        tuple(study.elements),
        habits_variant,
        ex_smoker_definition,
    )
    for source in sources:
        study.attach(_catalogue_for(source).binding(source, selection))
