"""H3 — Hypothesis 3: studies compile into ETL workflows.

Two halves: (a) every study in the suite compiles to a workflow whose
output equals direct classifier evaluation; (b) the classifier language's
guards all normalize to unions of conjunctive queries — "we believe that
the classifier language as specified here is equivalent in expressive
power to conjunctive queries with union", checked over the entire real
classifier corpus via DNF normalization.
"""

from __future__ import annotations

from benchmarks.conftest import emit_report
from repro.analysis import build_study1, build_study2
from repro.analysis.classifiers import vendor_classifiers_for
from repro.etl import compile_study
from repro.expr.analysis import to_dnf
from repro.relational import Database


def _studies(world):
    return [
        build_study1(world),
        build_study2(world, "1y"),
        build_study2(world, "10y"),
        build_study2(world, "ever"),
    ]


def test_h3_compile_all_studies(benchmark, world):
    studies = _studies(world)

    def compile_all():
        return [compile_study(study, Database("wh")) for study in studies]

    workflows = benchmark(compile_all)
    assert all(wf.stages() == ["extract", "study"] for wf in workflows)


def test_h3_equivalence_report(benchmark, world):
    studies = _studies(world)

    def verify_all():
        rows = []
        for study in studies:
            direct = study.run().rows("Procedure")
            outputs, _ = compile_study(study, Database("wh")).run()
            etl = outputs["Procedure__load"]
            key = lambda r: (r["source"], r["record_id"])
            equivalent = sorted(etl, key=key) == sorted(direct, key=key)
            rows.append(
                {
                    "study": study.name,
                    "sources": len(study.bindings),
                    "elements": len(study.elements),
                    "rows": len(etl),
                    "etl_equals_direct": equivalent,
                }
            )
        return rows

    rows = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    assert all(row["etl_equals_direct"] for row in rows)
    emit_report(
        "H3 / Hypothesis 3 — every study compiles to an equivalent ETL workflow",
        rows,
    )


def test_h3_ucq_corpus_report(benchmark, world):
    """The expressiveness half: all real guards are unions of conjunctions."""

    def analyze():
        rows = []
        for source in world.sources:
            vendor = vendor_classifiers_for(source)
            classifiers = vendor.base + [
                vendor.habits_cancer,
                vendor.habits_chemistry,
                vendor.ex_smoker_1y,
                vendor.ex_smoker_10y,
                vendor.ex_smoker_ever,
            ]
            guards = [rule.guard for c in classifiers for rule in c.rules]
            clause_counts = [len(to_dnf(guard)) for guard in guards]
            rows.append(
                {
                    "source": source.name,
                    "classifiers": len(classifiers),
                    "rules": len(guards),
                    "all_union_of_conjunctions": all(
                        c.is_union_of_conjunctions() for c in classifiers
                    ),
                    "max_dnf_clauses": max(clause_counts),
                }
            )
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)
    assert all(row["all_union_of_conjunctions"] for row in rows)
    emit_report(
        "H3 — classifier language is within conjunctive queries with union",
        rows,
        notes="every guard in the real classifier corpus normalizes to DNF "
        "with a small clause count",
    )
