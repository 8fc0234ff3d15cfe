"""The CI bench-regression gate must trip on real slowdowns, not jitter."""

from __future__ import annotations

import json
import pathlib

from benchmarks.check_regression import (
    DEFAULT_THRESHOLD,
    REQUIRED_CASES,
    compare,
    gate,
    headline_metrics,
    merge_best,
    missing_required,
)

# A synthetic benchmark name on purpose: it carries no REQUIRED_CASES, so
# these tests isolate the timing comparison from the coverage floor.
BASELINE = {
    "benchmark": "synthetic",
    "results": [
        {"case": "filtered_scan", "optimized_ms": 1.5, "interpreted_ms": 9.0},
        {"case": "topk", "optimized_ms": 1.4},
        {"case": "pipeline_engine", "ms": 40.0},
    ],
}


class TestHeadlineMetrics:
    def test_prefers_optimized_ms_then_ms(self):
        assert headline_metrics(BASELINE) == {
            "filtered_scan": 1.5,
            "topk": 1.4,
            "pipeline_engine": 40.0,
        }

    def test_ignores_rows_without_timings(self):
        assert headline_metrics({"results": [{"case": "x"}]}) == {}


class TestMergeBest:
    def test_takes_per_case_minimum(self):
        runs = [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 2.0}]
        assert merge_best(runs) == {"a": 1.0, "b": 1.0}

    def test_union_of_cases(self):
        assert merge_best([{"a": 1.0}, {"b": 2.0}]) == {"a": 1.0, "b": 2.0}


class TestCompare:
    def test_passes_within_threshold(self):
        baseline = {"case": 1.0}
        assert compare(baseline, {"case": 1.24}) == []

    def test_fails_beyond_threshold(self):
        problems = compare({"case": 1.0}, {"case": 1.3})
        assert len(problems) == 1
        assert "case" in problems[0]

    def test_missing_case_fails(self):
        problems = compare({"case": 1.0}, {})
        assert problems == ["case: missing from current run"]


class TestGate:
    def test_passes_on_unchanged_timings(self):
        runner = lambda name: dict(headline_metrics(BASELINE))  # noqa: E731
        assert gate({"synthetic": BASELINE}, runner, runs=3) == {}

    def test_fails_on_synthetic_2x_slowdown(self):
        # The acceptance demonstration: every case twice as slow must
        # trip the gate even with best-of-3 jitter tolerance.
        slowed = {
            case: value * 2 for case, value in headline_metrics(BASELINE).items()
        }
        failures = gate({"synthetic": BASELINE}, lambda name: slowed, runs=3)
        assert "synthetic" in failures
        assert len(failures["synthetic"]) == 3
        for problem in failures["synthetic"]:
            assert "x2.00" in problem

    def test_best_of_n_absorbs_one_noisy_run(self):
        calls = iter(
            [
                {case: v * 5 for case, v in headline_metrics(BASELINE).items()},
                dict(headline_metrics(BASELINE)),
                dict(headline_metrics(BASELINE)),
            ]
        )
        failures = gate(
            {"synthetic": BASELINE}, lambda name: next(calls), runs=3
        )
        assert failures == {}

    def test_threshold_is_configurable(self):
        slowed = {
            case: value * 1.3 for case, value in headline_metrics(BASELINE).items()
        }
        assert gate({"b": BASELINE}, lambda name: slowed, threshold=1.5) == {}
        assert gate({"b": BASELINE}, lambda name: slowed, threshold=1.25) != {}
        assert DEFAULT_THRESHOLD == 1.25


class TestRequiredCases:
    def test_relational_core_requires_the_zm_tier(self):
        assert "zm_selective_scan" in REQUIRED_CASES["relational_core"]
        problems = missing_required("relational_core", BASELINE)
        assert "zm_selective_scan" in problems
        assert "zm_groupby_dict" in problems

    def test_gate_fails_on_baseline_missing_required_cases(self):
        stripped = {"benchmark": "relational_core", "results": BASELINE["results"]}
        runner = lambda name: dict(headline_metrics(stripped))  # noqa: E731
        failures = gate({"relational_core": stripped}, runner, runs=1)
        assert any(
            "required case missing" in problem
            for problem in failures.get("relational_core", [])
        )

    def test_committed_baseline_carries_every_required_case(self):
        path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_relational_core.json"
        payload = json.loads(path.read_text())
        assert missing_required("relational_core", payload) == []

    def test_committed_durability_baseline_carries_every_required_case(self):
        assert "du_etl_wal_on" in REQUIRED_CASES["durability"]
        assert "du_recover_replay" in REQUIRED_CASES["durability"]
        path = pathlib.Path(__file__).resolve().parents[2] / "BENCH_durability.json"
        payload = json.loads(path.read_text())
        assert missing_required("durability", payload) == []

    def test_unknown_benchmarks_have_no_floor(self):
        assert missing_required("synthetic", BASELINE) == []
