"""Rewrite census: every rule the optimizer can note fires on the paper's work.

A rewrite that no workload applies is code, tests and docs paid for
nothing, so a rule earns its place by firing.  The rule names are read
from ``relational/query.py`` itself (every name passed to ``ctx.note``),
and one small live round runs in-process under a tracer, the round the
``live_warehouse`` benchmark repeats: Study 1 and Study 2 previews, an
ETL publish, data entry through each clinic's session, and a
record-scoped incremental warehouse refresh.  Every noted rule must show
up in the ``rewrite.*`` counters of the round's ``optimize`` spans.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

import repro.relational.query as query_module
from repro.analysis import build_study1, build_study2, vendor_classifiers_for
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical import ClinicalWorld, generate_truths
from repro.clinical.cori import build_cori_chain, build_cori_tool, cori_procedure_values
from repro.clinical.vendors import (
    build_endopro_chain,
    build_endopro_tool,
    build_medscribe_chain,
    build_medscribe_tool,
    endopro_values,
    medscribe_values,
)
from repro.etl import compile_study
from repro.guava import GuavaSource
from repro.obs import tracing
from repro.relational import Database
from repro.warehouse import FullStrategy, MaterializationJob, Warehouse

BASE = 45
ENTERED = 15


def _enter_cori(session, truth) -> None:
    row = session.enter("procedure", cori_procedure_values(truth))
    for finding in truth.findings:
        session.enter(
            "finding",
            {
                "procedure_id": row["record_id"],
                "finding_type": finding.finding_type,
                "size_mm": finding.size_mm,
                "images_taken": finding.images_taken,
            },
        )
    for medication in truth.medications:
        session.enter(
            "medication",
            {
                "procedure_id": row["record_id"],
                "drug": medication.drug,
                "dosage_mg": medication.dosage_mg,
                "pills_per_day": medication.pills_per_day,
                "instructions": medication.instructions,
            },
        )


#: (source name, build the tool, build its chain, enter one procedure).
VENDORS = (
    ("cori", build_cori_tool, build_cori_chain, _enter_cori),
    (
        "endopro",
        build_endopro_tool,
        build_endopro_chain,
        lambda session, truth: session.enter("endoscopy_report", endopro_values(truth)),
    ),
    (
        "medscribe",
        build_medscribe_tool,
        build_medscribe_chain,
        lambda session, truth: session.enter("visit", medscribe_values(truth)),
    ),
)


def noted_rules() -> set[str]:
    """Every rule name ``relational/query.py`` passes to ``ctx.note``."""
    text = Path(query_module.__file__).read_text(encoding="utf-8")
    return set(re.findall(r'ctx\.note\(\s*"(\w+)"', text))


class _Clinic:
    def __init__(self, name, build_tool, build_chain, enter):
        tool = build_tool()
        self.source = GuavaSource(name, tool, build_chain(tool), db=Database(name))
        self.session = self.source.session()
        self._enter = enter
        self.truths: list = []

    def enter(self, truth) -> None:
        self._enter(self.session, truth)
        self.truths.append(truth)

    def warehouse(self) -> FullStrategy:
        vendor = vendor_classifiers_for(self.source)
        job = MaterializationJob(
            schema=build_endoscopy_schema(),
            entity="Procedure",
            sources=[self.source],
            entity_classifiers={self.source.name: vendor.entity_classifier},
            classifiers=[
                vendor.habits_cancer,
                vendor.habits_chemistry,
                vendor.ex_smoker_ever,
            ],
        )
        strategy = FullStrategy(job, Warehouse(db=self.source.db))
        strategy.build()
        return strategy


@pytest.fixture(scope="module")
def fired() -> Counter:
    """``rewrite.*`` counts of one traced live round over three clinics."""
    truths = generate_truths(BASE + ENTERED, seed=7)
    clinics = [_Clinic(*vendor) for vendor in VENDORS]
    for index, truth in enumerate(truths[:BASE]):
        clinics[index % len(clinics)].enter(truth)
    strategies = [clinic.warehouse() for clinic in clinics]
    world = ClinicalWorld(
        truths=truths[:BASE],
        sources=[clinic.source for clinic in clinics],
        truths_by_source={clinic.source.name: clinic.truths for clinic in clinics},
    )
    counts: Counter = Counter()
    with tracing() as tracer:
        build_study1(world).run()
        for definition in ("1y", "10y", "ever"):
            build_study2(world, definition).run()
        compile_study(build_study1(world), Database("warehouse")).run()
        for index, truth in enumerate(truths[BASE:]):
            clinics[index % len(clinics)].enter(truth)
            world.truths.append(truth)
        for strategy in strategies:
            strategy.build(incremental=True)
        build_study1(world).run()
    for root in tracer.roots:
        for span in root.walk():
            for key, value in span.attrs.items():
                if key.startswith("rewrite."):
                    counts[key.removeprefix("rewrite.")] += value
    return counts


def test_the_census_reads_the_rules():
    rules = noted_rules()
    assert "index_lowering" in rules and "select_merge" in rules
    assert len(rules) >= 10


def test_every_noted_rule_fires_on_a_live_round(fired):
    never = sorted(noted_rules() - set(fired))
    assert never == [], f"rewrites no live round applies: {never}"


def test_the_round_fires_only_noted_rules(fired):
    assert set(fired) <= noted_rules()
