"""Baselines the paper argues against.

* **Context-blind extraction** (Hypothesis 2's comparison point): a
  technical expert who can read every physical layout but lacks the UI
  context interprets columns by name with one global dictionary.  The
  paper's §1 example — "A 1 in the field smoker might mean that the
  patient is a current smoker, or instead could mean that they quit
  smoking one year ago" — plays out literally: EndoPro's ``smoker`` means
  *current*, MedScribe's means *ever*, and the context-blind reader must
  pick one meaning for both.

* **Global single ETL** (§1): a classic warehouse fixes one
  classification at load time.  Studies whose definitions differ from the
  global choice silently inherit wrong labels; MultiClass re-classifies
  per study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.classifiers import vendor_classifiers_for
from repro.analysis.metrics import PrecisionRecall, precision_recall
from repro.clinical.sources import ClinicalWorld
from repro.guava.query import GTreeQuery
from repro.ui.form import RECORD_ID

Row = dict[str, object]

#: (source name, record id) — a unique key across the federation.
RecordKey = tuple[str, int]


@dataclass
class SmokingExtraction:
    """Predicted record sets per smoking status."""

    current: set[RecordKey]
    ex: set[RecordKey]
    never: set[RecordKey]


def _procedure_form(source) -> str:
    """The procedure-level form of a clinical-world source."""
    return source.tool.forms[0].name


def truth_smoking_sets(world: ClinicalWorld) -> SmokingExtraction:
    """Ground-truth record sets."""
    current: set[RecordKey] = set()
    ex: set[RecordKey] = set()
    never: set[RecordKey] = set()
    for source_name, truths in world.truths_by_source.items():
        for index, truth in enumerate(truths):
            key = (source_name, index + 1)
            status = truth.patient.smoking.status
            {"current": current, "ex": ex, "never": never}[status].add(key)
    return SmokingExtraction(current, ex, never)


def guava_smoking(world: ClinicalWorld) -> SmokingExtraction:
    """Context-aware extraction: per-source status3 classifiers via GUAVA."""
    current: set[RecordKey] = set()
    ex: set[RecordKey] = set()
    never: set[RecordKey] = set()
    for source in world.sources:
        vendor = vendor_classifiers_for(source)
        status3 = next(
            c
            for c in vendor.base
            if c.target_attribute == "Smoking" and c.target_domain == "status3"
        )
        form = vendor.entity_classifier.form
        classify = status3.compile()
        for record in source.execute(GTreeQuery(source.gtree(form))):
            key = (source.name, int(record[RECORD_ID]))
            label = classify(record)
            if label == "Current":
                current.add(key)
            elif label == "Previous":
                ex.add(key)
            elif label == "None":
                never.add(key)
    return SmokingExtraction(current, ex, never)


def context_blind_smoking(world: ClinicalWorld) -> SmokingExtraction:
    """Context-blind extraction: one global column-name dictionary.

    The reader reconstructs each source's record layout (we are generous:
    they know the design patterns) but interprets columns *by name*:

    * boolean ``smoker``-like column  => current smoker when true,
    * boolean ``former_smoker``       => ex-smoker when true,
    * text ``smoking`` status column  => its value taken literally.

    The dictionary is exactly right for EndoPro and CORI and exactly wrong
    for MedScribe's ever-smoked checkbox.
    """
    current: set[RecordKey] = set()
    ex: set[RecordKey] = set()
    never: set[RecordKey] = set()
    for source in world.sources:
        form = _procedure_form(source)
        for record in source.chain.read_naive(source.db, form):
            key = (source.name, int(record[RECORD_ID]))
            smoker_flag = _first_bool(record, ("smoker",))
            former_flag = _first_bool(record, ("former_smoker",))
            status_text = record.get("smoking")
            if status_text is not None:
                if status_text == "Current":
                    current.add(key)
                elif status_text == "Previous":
                    ex.add(key)
                elif status_text == "Never":
                    never.add(key)
                continue
            if smoker_flag is True:
                current.add(key)  # the §1 misreading for MedScribe
            elif former_flag is True:
                ex.add(key)
            elif smoker_flag is False:
                never.add(key)
    return SmokingExtraction(current, ex, never)


def _first_bool(record: Row, names: tuple[str, ...]) -> bool | None:
    for name in names:
        if name in record and isinstance(record[name], bool):
            return record[name]
    return None


@dataclass
class SmokingComparison:
    """Hypothesis 2 scoreboard: GUAVA vs context-blind, per status."""

    method: str
    current: PrecisionRecall
    ex: PrecisionRecall
    never: PrecisionRecall

    def as_rows(self) -> list[dict[str, object]]:
        return [
            {
                "method": self.method,
                "status": status,
                "precision": round(pr.precision, 4),
                "recall": round(pr.recall, 4),
                "f1": round(pr.f1, 4),
            }
            for status, pr in (
                ("current", self.current),
                ("ex", self.ex),
                ("never", self.never),
            )
        ]


def compare_smoking_extraction(world: ClinicalWorld) -> list[SmokingComparison]:
    """Score both methods against ground truth."""
    truth = truth_smoking_sets(world)
    comparisons = []
    for method, predicted in (
        ("guava+multiclass", guava_smoking(world)),
        ("context-blind", context_blind_smoking(world)),
    ):
        comparisons.append(
            SmokingComparison(
                method=method,
                current=precision_recall(predicted.current, truth.current),
                ex=precision_recall(predicted.ex, truth.ex),
                never=precision_recall(predicted.never, truth.never),
            )
        )
    return comparisons


# ---------------------------------------------------------------------------
# Global single-ETL baseline (A3)


@dataclass
class GlobalETLComparison:
    """Per study definition: error of the frozen global label vs per-study."""

    definition: str
    cohort_size_truth: int
    global_etl_errors: int
    multiclass_errors: int

    def as_row(self) -> dict[str, object]:
        return {
            "definition": f"quit {self.definition}",
            "truth_cohort": self.cohort_size_truth,
            "global_etl_mislabels": self.global_etl_errors,
            "multiclass_mislabels": self.multiclass_errors,
        }


def global_etl_ex_smokers(
    world: ClinicalWorld, global_definition: str = "ever"
) -> list[GlobalETLComparison]:
    """Freeze one ex-smoker label at load time; score per-study needs.

    The classic warehouse stores ``ex_smoker`` computed once with
    ``global_definition``.  Every study definition is then answered from
    that frozen column; MultiClass instead re-runs the matching
    classifier.  Errors are record-level disagreements with ground truth.
    """
    frozen: dict[RecordKey, bool] = {}
    per_study: dict[str, dict[RecordKey, bool]] = {}
    definitions = ("1y", "10y", "ever")
    for source in world.sources:
        vendor = vendor_classifiers_for(source)
        form = vendor.entity_classifier.form
        records = source.execute(GTreeQuery(source.gtree(form)))
        frozen_classify = vendor.ex_smoker(global_definition).compile()
        study_classify = {
            definition: vendor.ex_smoker(definition).compile()
            for definition in definitions
        }
        for record in records:
            key = (source.name, int(record[RECORD_ID]))
            frozen[key] = frozen_classify(record) is True
            for definition, classify in study_classify.items():
                per_study.setdefault(definition, {})[key] = classify(record) is True

    comparisons = []
    within = {"1y": 1.0, "10y": 10.0, "ever": None}
    for definition in definitions:
        truth_labels: dict[RecordKey, bool] = {}
        for source_name, truths in world.truths_by_source.items():
            for index, truth in enumerate(truths):
                truth_labels[(source_name, index + 1)] = truth.patient.smoking.is_ex_smoker(
                    within[definition]
                )
        global_errors = sum(
            1 for key, actual in truth_labels.items() if frozen.get(key) != actual
        )
        multiclass_errors = sum(
            1
            for key, actual in truth_labels.items()
            if per_study[definition].get(key) != actual
        )
        comparisons.append(
            GlobalETLComparison(
                definition=definition,
                cohort_size_truth=sum(truth_labels.values()),
                global_etl_errors=global_errors,
                multiclass_errors=multiclass_errors,
            )
        )
    return comparisons
