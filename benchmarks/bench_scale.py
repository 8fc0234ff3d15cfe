"""SC — scalability supplement: end-to-end cost vs world size.

Not a paper artifact, but the natural question about the architecture:
how does per-study cost grow with data volume?  Everything in the
pipeline is a linear pass (extract, classify, union, filter), so study
time should scale linearly in the number of procedures — which the sweep
confirms.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit_report
from repro.analysis import build_study1
from repro.clinical import build_world

SIZES = (100, 300, 900)
#: Cold runs of each size's study in the report; the fastest is kept.
RUNS = 3


@pytest.mark.parametrize("size", SIZES)
def test_study1_at_scale(benchmark, size):
    world = build_world(size, seed=7)
    study = build_study1(world)
    result = benchmark(study.run)
    assert result.count("Procedure") == size


def test_scale_report(benchmark):
    def sweep():
        rows = []
        for size in SIZES:
            started = time.perf_counter()
            world = build_world(size, seed=7)
            build_seconds = time.perf_counter() - started

            study = build_study1(world)
            # One sample measures the box as much as the study: keep the
            # fastest of three, each a cold read (reads are memoized per
            # data version, so the caches are cleared before every run).
            run_seconds = float("inf")
            for _ in range(RUNS):
                for source in world.sources:
                    source.db.plan_cache_clear()
                started = time.perf_counter()
                result = study.run()
                run_seconds = min(run_seconds, time.perf_counter() - started)
            rows.append(
                {
                    "procedures": size,
                    "world_build_ms": round(build_seconds * 1000, 1),
                    "study1_run_ms": round(run_seconds * 1000, 1),
                    "rows_integrated": result.count("Procedure"),
                    "us_per_procedure": round(run_seconds * 1e6 / size, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Linear scaling: per-procedure cost roughly flat (allow 3x drift for
    # constant overheads at the small end).
    per_unit = [row["us_per_procedure"] for row in rows]
    assert max(per_unit) <= 3 * min(per_unit)
    emit_report(
        "SC — end-to-end study cost vs world size",
        rows,
        notes="every pipeline stage is a linear pass; per-procedure cost "
        "stays roughly constant",
    )
