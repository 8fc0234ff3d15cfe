"""Core-engine microbenchmarks: streaming/compiled/optimized vs interpreted.

Times the relational substrate's hot paths twice per case — once through
``optimize(plan, db).execute(db)`` (streaming operators, compiled
predicates, index lowering) and once through
:func:`repro.relational.interpret.execute_interpreted`, the seed executor
preserved as the reference implementation.  The speedup column is therefore
an honest before/after of this engine revision, measured in-process.

Runs two ways:

* ``pytest benchmarks/bench_relational_core.py`` — pytest-benchmark cases
  plus a summary table through the shared report channel;
* ``python benchmarks/bench_relational_core.py`` — standalone mode (no
  pytest needed, CI-friendly) writing a scratch
  ``benchmarks/reports/relational_core.latest.json``; pass ``--json`` to
  promote the run to the committed ``BENCH_relational_core.json``
  baseline.
"""

from __future__ import annotations

import sys

try:  # package import under pytest, bare import as a standalone script
    from benchmarks._payload import resolve_json_path, write_payload
except ImportError:  # pragma: no cover - script mode
    from _payload import resolve_json_path, write_payload
import os
import time

from repro.expr.ast import BinaryOp, Identifier, Literal
from repro.patterns import (
    AuditPattern,
    EncodingPattern,
    LookupPattern,
    MultivaluePattern,
    PatternChain,
)
from repro.relational import (
    AggregateSpec,
    Aggregate,
    Compute,
    Database,
    DataType,
    Join,
    Scan,
    Select,
    TableSchema,
    execute_interpreted,
    optimize,
)

N_ROWS = 3_000
N_VISITS = 6_000
N_VITALS_COLUMNS = 12
CHAIN_ROWS = 300
CHAIN_DEPTH = 4


# -- fixture data --------------------------------------------------------------


def build_database() -> Database:
    db = Database("bench_core")
    db.create_table(
        TableSchema.build(
            "patients",
            [
                ("patient_id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("name", DataType.TEXT),
                ("site", DataType.TEXT),
            ],
            primary_key=["patient_id"],
        )
    )
    db.create_table(
        TableSchema.build(
            "visits",
            [
                ("visit_id", DataType.INTEGER),
                ("patient_id", DataType.INTEGER),
                ("score", DataType.INTEGER),
            ],
            primary_key=["visit_id"],
        )
    )
    db.insert(
        "patients",
        (
            {
                "patient_id": i,
                "age": 20 + (i * 7) % 60,
                "name": f"p{i:05d}",
                "site": f"site{i % 40}",
            }
            for i in range(N_ROWS)
        ),
    )
    db.insert(
        "visits",
        (
            {"visit_id": i, "patient_id": i % N_ROWS, "score": (i * 13) % 100}
            for i in range(N_VISITS)
        ),
    )
    db.create_table(
        TableSchema.build(
            "vitals",
            [("patient_id", DataType.INTEGER)]
            + [(f"m{j}", DataType.INTEGER) for j in range(N_VITALS_COLUMNS)],
            primary_key=["patient_id"],
        )
    )
    db.insert(
        "vitals",
        (
            {"patient_id": i, **{f"m{j}": (i * (j + 3)) % 100 for j in range(N_VITALS_COLUMNS)}}
            for i in range(N_ROWS)
        ),
    )
    db.table("patients").create_index(("site",))
    return db


def build_chain() -> tuple[PatternChain, Database]:
    """The A6 depth-4 pattern chain over the 'screen' schema."""
    schemas = {
        "screen": TableSchema.build(
            "screen",
            [
                ("record_id", DataType.INTEGER),
                ("checked", DataType.BOOLEAN),
                ("category", DataType.TEXT),
                ("tags", DataType.TEXT),
            ],
            primary_key=["record_id"],
        )
    }
    chain = PatternChain(
        schemas,
        [
            MultivaluePattern("screen", "tags", "screen_tags"),
            LookupPattern({("screen", "category"): "category_codes"}),
            EncodingPattern({("screen", "checked"): {True: "Y", False: "N"}}),
            AuditPattern(),
        ][:CHAIN_DEPTH],
    )
    db = Database("bench_chain")
    chain.deploy(db)
    for record_id in range(1, CHAIN_ROWS + 1):
        chain.write(
            db,
            "screen",
            {
                "record_id": record_id,
                "checked": record_id % 2 == 0,
                "category": ("Never", "Current", "Previous")[record_id % 3],
                "tags": "a;b" if record_id % 2 else None,
            },
        )
    return chain, db


# -- cases ---------------------------------------------------------------------


def _filtered_scan_plan():
    return Select(
        Scan("patients"),
        BinaryOp(
            "AND",
            BinaryOp(">=", Identifier.of("age"), Literal(40)),
            BinaryOp("<", Identifier.of("age"), Literal(60)),
        ),
    )


def _indexed_lookup_plan():
    return Select(
        Scan("patients"), BinaryOp("=", Identifier.of("site"), Literal("site7"))
    )


def _join_aggregate_plan():
    return Aggregate(
        Select(
            Join(Scan("patients"), Scan("visits"), (("patient_id", "patient_id"),)),
            BinaryOp(">=", Identifier.of("score"), Literal(50)),
        ),
        ("site",),
        (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("AVG", "score", "mean_score"),
        ),
    )


def _wide_scan_plan():
    """Filter + derive over the 13-column table: the columnar sweet spot."""
    return Compute(
        Select(Scan("vitals"), BinaryOp(">=", Identifier.of("m0"), Literal(10))),
        (("mix", BinaryOp("+", Identifier.of("m1"), Identifier.of("m2"))),),
    )


def make_cases():
    db = build_database()
    chain, chain_db = build_chain()
    chain_plan = chain.plan_for("screen")
    cases = [
        ("scan", db, Scan("patients")),
        ("filtered_scan", db, _filtered_scan_plan()),
        ("indexed_lookup", db, _indexed_lookup_plan()),
        ("join_aggregate", db, _join_aggregate_plan()),
        ("wide_scan", db, _wide_scan_plan()),
        (f"pattern_chain_depth{CHAIN_DEPTH}", chain_db, chain_plan),
    ]
    return cases


# -- standalone runner ---------------------------------------------------------


def _time(fn, *, repeats: int = 5, min_runtime: float = 0.2) -> float:
    """Best-of-``repeats`` seconds per call, auto-scaling the loop count."""
    loops = 1
    while True:
        started = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - started
        if elapsed >= min_runtime / 2 or loops >= 1 << 16:
            break
        loops *= 2
    best = elapsed / loops
    for _ in range(repeats - 1):
        started = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - started) / loops)
    return best


def run(json_path: str | None = None) -> list[dict]:
    results = []
    for name, db, plan in make_cases():
        optimized = optimize(plan, db)
        fast = lambda: optimized.execute(db)  # noqa: E731
        slow = lambda: execute_interpreted(plan, db)  # noqa: E731
        assert fast() == slow(), f"case {name}: optimized and interpreted disagree"
        fast_s = _time(fast)
        slow_s = _time(slow)
        results.append(
            {
                "case": name,
                "rows_out": len(fast()),
                "interpreted_ms": round(slow_s * 1000, 3),
                "optimized_ms": round(fast_s * 1000, 3),
                "speedup": round(slow_s / fast_s, 2),
            }
        )
        print(
            f"{name:<28} interpreted {slow_s * 1000:9.3f} ms   "
            f"optimized {fast_s * 1000:9.3f} ms   x{slow_s / fast_s:6.2f}",
            flush=True,
        )
    if json_path:
        payload = {
            "benchmark": "relational_core",
            "n_rows": N_ROWS,
            "n_visits": N_VISITS,
            "chain_rows": CHAIN_ROWS,
            "chain_depth": CHAIN_DEPTH,
            # Bench provenance: the cores the producing machine had.
            "cores": len(os.sched_getaffinity(0)),
            "results": results,
        }
        write_payload(json_path, payload)
        print(f"wrote {json_path}")
    return results


def main(argv: list[str]) -> int:
    json_path, promoted = resolve_json_path(argv, "relational_core")
    run(json_path)
    if not promoted:
        print("scratch run; pass --json to promote to the committed baseline")
    return 0


# -- pytest-benchmark cases ----------------------------------------------------


def _pytest_cases():
    import pytest

    return pytest.mark.parametrize(
        "case_name", [name for name, _, _ in make_cases()]
    )


if "pytest" in sys.modules:  # imported by pytest collection
    import pytest

    _CASES = {name: (db, plan) for name, db, plan in make_cases()}

    @pytest.fixture(params=sorted(_CASES))
    def core_case(request):
        db, plan = _CASES[request.param]
        return request.param, db, plan

    def test_optimized_execution(benchmark, core_case):
        name, db, plan = core_case
        optimized = optimize(plan, db)
        result = benchmark(lambda: optimized.execute(db))
        assert result == execute_interpreted(plan, db)

    def test_interpreted_baseline(benchmark, core_case):
        name, db, plan = core_case
        benchmark(lambda: execute_interpreted(plan, db))

    def test_core_report(benchmark):
        from benchmarks.conftest import emit_report

        rows = benchmark.pedantic(run, rounds=1, iterations=1)
        emit_report(
            "core engine — streaming/compiled/optimized vs interpreted",
            rows,
            notes="interpreted = seed executor preserved in "
            "repro.relational.interpret; same plans, same databases",
        )
        by_case = {row["case"]: row["speedup"] for row in rows}
        assert by_case["filtered_scan"] >= 3.0
        assert by_case["indexed_lookup"] >= 3.0
        assert by_case[f"pattern_chain_depth{CHAIN_DEPTH}"] >= 1.5


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
