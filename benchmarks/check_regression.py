"""CI benchmark-regression gate over the committed BENCH_*.json baselines.

Re-runs the headline benchmarks, each in a fresh interpreter (so one
bench's heap and caches never slow the next), and fails (exit 1) when
any headline metric — a case's ``optimized_ms``/``ms`` — regresses more
than the threshold (default 25%) against its committed baseline.  CI
jitter is tolerated by taking the best of N runs (default 3) per case
before comparing; a case present in the baseline but missing from the
current run also fails the gate.

Usage (from the repo root, ``PYTHONPATH=src``)::

    python benchmarks/check_regression.py \\
        BENCH_relational_core.json BENCH_etl_pipeline.json --runs 3

The comparison logic (``merge_best``/``compare``/``gate``) is pure and
takes an injectable runner, so tests can prove the gate trips on a
synthetic 2x slowdown without timing anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Callable, Sequence

DEFAULT_THRESHOLD = 1.25
DEFAULT_RUNS = 3

#: Cases every committed baseline of a benchmark must carry: a
#: re-promoted baseline that silently drops a tier (e.g. the zone-map ZM
#: cases) fails the gate instead of shrinking its coverage.
REQUIRED_CASES: dict[str, tuple[str, ...]] = {
    "relational_core": ("filtered_scan", "indexed_lookup"),
    "durability": (
        "du_etl_wal_off",
        "du_etl_wal_on",
        "du_snapshot_write",
        "du_recover_snapshot",
        "du_recover_replay",
    ),
}

Payload = dict[str, Any]


def missing_required(name: str, payload: Payload) -> list[str]:
    """Required cases absent from a committed baseline payload."""
    required = REQUIRED_CASES.get(name, ())
    present = {str(row.get("case")) for row in payload.get("results", [])}
    return [case for case in required if case not in present]


def headline_metrics(payload: Payload) -> dict[str, float]:
    """Case name -> headline milliseconds for one benchmark payload.

    The relational benchmark's headline is the optimized execution time;
    the ETL benchmark reports one ``ms`` per mode/case.
    """
    metrics: dict[str, float] = {}
    for row in payload.get("results", []):
        value = row.get("optimized_ms", row.get("ms"))
        if value is not None:
            metrics[str(row["case"])] = float(value)
    return metrics


def merge_best(runs: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-case minimum across runs — the jitter-tolerant comparison side."""
    best: dict[str, float] = {}
    for run in runs:
        for case, value in run.items():
            if case not in best or value < best[case]:
                best[case] = value
    return best


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Problems (empty = gate passes) comparing current against baseline."""
    problems: list[str] = []
    for case in sorted(baseline):
        base_ms = baseline[case]
        now_ms = current.get(case)
        if now_ms is None:
            problems.append(f"{case}: missing from current run")
            continue
        if base_ms > 0 and now_ms > base_ms * threshold:
            problems.append(
                f"{case}: {now_ms:.3f} ms vs baseline {base_ms:.3f} ms "
                f"(x{now_ms / base_ms:.2f} > x{threshold:.2f})"
            )
    return problems


def gate(
    baselines: dict[str, Payload],
    runner: Callable[[str], dict[str, float]],
    runs: int = DEFAULT_RUNS,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, list[str]]:
    """Benchmark name -> problems, running each benchmark ``runs`` times.

    ``runner(benchmark_name)`` returns one run's headline metrics; it is
    injectable so tests can feed synthetic timings.
    """
    failures: dict[str, list[str]] = {}
    for name, payload in baselines.items():
        problems = [
            f"{case}: required case missing from committed baseline"
            for case in missing_required(name, payload)
        ]
        observed = merge_best([runner(name) for _ in range(max(1, runs))])
        problems.extend(compare(headline_metrics(payload), observed, threshold))
        if problems:
            failures[name] = problems
    return failures


_HERE = os.path.dirname(os.path.abspath(__file__))


def _run_benchmark(name: str) -> dict[str, float]:
    """Run ``benchmarks/bench_<name>.py`` in a fresh interpreter and
    return its headline metrics."""
    script = os.path.join(_HERE, f"bench_{name}.py")
    if not os.path.exists(script):
        raise SystemExit(f"unknown benchmark {name!r}")
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, f"{name}.json")
        subprocess.run([sys.executable, script, "--json", out], check=True)
        with open(out) as handle:
            return headline_metrics(json.load(handle))


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baselines",
        nargs="+",
        help="committed BENCH_*.json baseline files to gate against",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=DEFAULT_RUNS,
        help=f"best-of-N jitter tolerance (default {DEFAULT_RUNS})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"failure ratio per case (default {DEFAULT_THRESHOLD})",
    )
    args = parser.parse_args(argv)

    baselines: dict[str, Payload] = {}
    for path in args.baselines:
        with open(path) as handle:
            payload = json.load(handle)
        baselines[str(payload["benchmark"])] = payload

    failures = gate(baselines, _run_benchmark, args.runs, args.threshold)
    if not failures:
        print(f"bench-regress: all headline metrics within x{args.threshold:.2f}")
        return 0
    for name, problems in sorted(failures.items()):
        print(f"bench-regress FAILED: {name}")
        for problem in problems:
            print(f"  {problem}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
