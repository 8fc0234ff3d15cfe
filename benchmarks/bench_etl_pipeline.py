"""ETL pipeline benchmark: a compiled study's publish, full vs incremental.

Two experiments:

* **pipeline** — one full compiled study (Study-1 elements plus the
  smoking/ex-smoker columns and four cleaning rules) run through
  ``Workflow.run()``; the best round is reported.
* **incremental** — a full CORI materialization versus a warm
  ``build(incremental=True)`` after a small data-entry delta; the
  refresh reclassifies only the changed records, the rebuild starts
  from scratch.

Each timed pipeline run and full rebuild starts with the sources' plan
caches and result memos cleared, so they time cold extracts rather
than memo hits or delta reads of rows kept by the round before.

Runs two ways:

* ``pytest benchmarks/bench_etl_pipeline.py`` — a fast equivalence
  check on a small world (the timing numbers come from standalone mode);
* ``python benchmarks/bench_etl_pipeline.py`` — standalone mode (no
  pytest needed, CI-friendly) writing a scratch
  ``benchmarks/reports/etl_pipeline.latest.json``; pass ``--json`` to
  promote the run to the committed ``BENCH_etl_pipeline.json`` baseline.
"""

from __future__ import annotations

import sys

try:  # package import under pytest, bare import as a standalone script
    from benchmarks._payload import resolve_json_path, write_payload
except ImportError:  # pragma: no cover - script mode
    from _payload import resolve_json_path, write_payload
import time

from repro.analysis.classifiers import vendor_classifiers_for
from repro.analysis.schema import build_endoscopy_schema
from repro.analysis.studies import STUDY1_ELEMENTS, build_cohort_study
from repro.clinical import build_world
from repro.clinical.cori import cori_procedure_values
from repro.clinical.ground_truth import generate_truths
from repro.etl import compile_study
from repro.multiclass import CleaningRule
from repro.relational import Database
from repro.warehouse import FullStrategy, MaterializationJob, Warehouse

WORLD_SIZE = 1_500
SEED = 7
ROUNDS = 12
DELTA_RECORDS = 5

ELEMENTS = STUDY1_ELEMENTS + [("Smoking", "habits4"), ("ExSmoker", "flag")]

CLEANING_RULES = (
    ("cori_warehouse_feed", "packs_per_day >= 3"),
    ("endopro_clinic", "cigarettes_per_day >= 60"),
    ("medscribe_clinic", "packs_daily >= 3"),
)


# -- workloads -----------------------------------------------------------------


def build_pipeline_study(world):
    study = build_cohort_study("bench_pipeline", world, ELEMENTS)
    for rule_source, condition in CLEANING_RULES:
        study.add_cleaning_rule(
            "Procedure",
            CleaningRule.of(
                f"heavy_{rule_source.split('_')[0]}",
                condition,
                reason="study protocol excludes very heavy smokers",
                source=rule_source,
            ),
        )
    study.add_cleaning_rule(
        "Procedure",
        CleaningRule.of(
            "unclassified_smoking",
            "ExSmoker_flag IS NULL",
            reason="smoking question unanswered",
            scope="study",
        ),
    )
    return study


def run_pipeline(study):
    workflow = compile_study(study, Database("wh"))
    return workflow.run()


def make_materialization_job(world, source):
    vendor = vendor_classifiers_for(source)
    return MaterializationJob(
        schema=build_endoscopy_schema(),
        entity="Procedure",
        sources=[source],
        entity_classifiers={source.name: vendor.entity_classifier},
        classifiers=[
            vendor.habits_cancer,
            vendor.habits_chemistry,
            vendor.ex_smoker_ever,
        ],
    )


def enter_delta(world, source, count, seed):
    existing = len(world.truths_by_source[source.name])
    session = source.session(first_record_id=existing + 1 + seed * count)
    for truth in generate_truths(count, seed=seed):
        session.enter("procedure", cori_procedure_values(truth))


def clear_read_caches(world) -> None:
    """Drop every source's cached plans and kept full-read rows."""
    for source in world.sources:
        source.db.plan_cache_clear()


# -- experiments ---------------------------------------------------------------


def bench_pipeline(world) -> list[dict]:
    study = build_pipeline_study(world)
    oracle, _ = run_pipeline(study)
    best = float("inf")
    for _ in range(2):  # warm-up: caches, imports, compiled closures
        run_pipeline(study)
    for _ in range(ROUNDS):
        # Every round extracts cold: kept rows and plans would turn the
        # extracts into result-memo hits.
        clear_read_caches(world)
        started = time.perf_counter()
        outputs, _ = run_pipeline(study)
        best = min(best, time.perf_counter() - started)
    assert outputs == oracle, "a cold publish diverged from the first"
    return [
        {
            "case": "pipeline_serial",
            "mode": "serial",
            "ms": round(best * 1000, 3),
            "speedup_vs_serial": 1.0,
        }
    ]


def bench_incremental(world) -> list[dict]:
    source = world.source("cori_warehouse_feed")
    warehouse = Warehouse()
    FullStrategy(make_materialization_job(world, source), warehouse).build()

    best_full = float("inf")
    best_incremental = float("inf")
    for round_no in range(ROUNDS):
        # Full rebuild: a fresh job per round, else the base-records cache
        # (the thing the satellite added) would flatter the full path too.
        job = make_materialization_job(world, source)
        strategy = FullStrategy(job, warehouse)
        # ...and without the source's kept rows, a delta read of them.
        source.db.plan_cache_clear()
        started = time.perf_counter()
        strategy.build()
        best_full = min(best_full, time.perf_counter() - started)

        # Warm refresh: enter a small delta, then rebuild incrementally.
        enter_delta(world, source, DELTA_RECORDS, seed=100 + round_no)
        strategy = FullStrategy(make_materialization_job(world, source), warehouse)
        started = time.perf_counter()
        strategy.build(incremental=True)
        best_incremental = min(best_incremental, time.perf_counter() - started)

    # The refreshed table must equal a from-scratch rebuild.
    reference = Warehouse()
    FullStrategy(make_materialization_job(world, source), reference).build()
    key = lambda r: (r["source"], r["record_id"])  # noqa: E731
    refreshed = sorted(warehouse.table("mat_procedure").rows(), key=key)
    rebuilt = sorted(reference.table("mat_procedure").rows(), key=key)
    assert refreshed == rebuilt, "incremental refresh diverged from full rebuild"

    return [
        {
            "case": "materialize_full_rebuild",
            "mode": "full",
            "ms": round(best_full * 1000, 3),
            "speedup_vs_full": 1.0,
        },
        {
            "case": f"materialize_incremental_delta{DELTA_RECORDS}",
            "mode": "incremental",
            "ms": round(best_incremental * 1000, 3),
            "speedup_vs_full": round(best_full / best_incremental, 2),
        },
    ]


# -- standalone runner ---------------------------------------------------------


def run(json_path: str | None = None) -> list[dict]:
    world = build_world(WORLD_SIZE, seed=SEED)
    results = bench_pipeline(world) + bench_incremental(world)
    for row in results:
        ratio = row.get("speedup_vs_serial", row.get("speedup_vs_full"))
        print(f"{row['case']:<36} {row['ms']:10.3f} ms   x{ratio:6.2f}", flush=True)
    if json_path:
        payload = {
            "benchmark": "etl_pipeline",
            "world_size": WORLD_SIZE,
            "seed": SEED,
            "rounds": ROUNDS,
            "delta_records": DELTA_RECORDS,
            "results": results,
        }
        write_payload(json_path, payload)
        print(f"wrote {json_path}")
    return results


def main(argv: list[str]) -> int:
    json_path, promoted = resolve_json_path(argv, "etl_pipeline")
    run(json_path)
    if not promoted:
        print("scratch run; pass --json to promote to the committed baseline")
    return 0


# -- pytest smoke case ---------------------------------------------------------


def test_memo_and_incremental_agree_with_cold_runs():
    """Small-world equivalence smoke test (timings live in standalone mode)."""
    world = build_world(80, seed=SEED)
    study = build_pipeline_study(world)
    cold, _ = run_pipeline(study)
    for _ in range(2):  # the admitted read, then memo hits
        warm, _ = run_pipeline(study)
        assert warm == cold

    source = world.source("cori_warehouse_feed")
    warehouse = Warehouse()
    FullStrategy(make_materialization_job(world, source), warehouse).build()
    enter_delta(world, source, 3, seed=101)
    FullStrategy(make_materialization_job(world, source), warehouse).build(
        incremental=True
    )
    reference = Warehouse()
    FullStrategy(make_materialization_job(world, source), reference).build()
    key = lambda r: (r["source"], r["record_id"])  # noqa: E731
    assert sorted(warehouse.table("mat_procedure").rows(), key=key) == sorted(
        reference.table("mat_procedure").rows(), key=key
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
