"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base a.json [b.json ...] \\
        --head c.json [d.json ...]

Each file is a document written by ``run.py --json`` (or the recorded
``baseline.json``).  For every workload and metric the script prints each
side's median and quartiles over its runs, and a verdict against the
metric's bound: the ``end_to_end`` bounds of ``BENCHMARK.json`` for the
gated metrics, and the bounds in :data:`DETAIL` for the per-operation
metrics.  A metric whose run-to-run spread (quartile distance ÷ median) is
wider than its bound is reported as unresolved, unless every head run is
better than every base run.  Exits 1 when any metric fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

#: (better, bound) of the per-operation metrics; bound 0 means the value
#: must not get worse at all (exact counts and the error rate).
DETAIL = {
    "entries_per_s": ("higher", 0.1),
    "disk_bytes_per_entry": ("lower", 0.0),
    "error_rate": ("lower", 0.0),
}
DEFAULT_DETAIL = ("lower", 0.1)


def load_runs(paths: list[str]) -> dict[str, list[dict]]:
    """Result documents per workload, from ``run.py --json`` files."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    if base_median:
        worse = sign * (head_median - base_median) / abs(base_median)
    else:
        worse = sign * head_median
    if worse <= 0 and bound == 0:
        return "pass"
    if max(spread(base), spread(head)) > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "better"
        return "unresolved"
    return "FAIL" if worse > bound else "pass"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base_runs = load_runs(args.base)
    head_runs = load_runs(args.head)

    failed = False
    header = (
        f"{'workload':<16} {'metric':<22} {'base q1/median/q3':>32} "
        f"{'head q1/median/q3':>32} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    for workload in sorted(set(base_runs) & set(head_runs)):
        base, head = base_runs[workload], head_runs[workload]
        for section in ("metrics", "detail"):
            for name in base[0][section]:
                if name not in head[0][section]:
                    continue
                better, bound = gated.get(name) or DETAIL.get(name, DEFAULT_DETAIL)
                before = [run[section][name]["value"] for run in base]
                after = [run[section][name]["value"] for run in head]
                result = verdict(before, after, better, bound)
                failed |= result == "FAIL"
                b1, bm, b3 = quartiles(before)
                h1, hm, h3 = quartiles(after)
                change = (hm - bm) / bm if bm else hm - bm
                print(
                    f"{workload:<16} {name:<22} "
                    f"{b1:>10.4g} {bm:>10.4g} {b3:>10.4g} "
                    f"{h1:>10.4g} {hm:>10.4g} {h3:>10.4g} "
                    f"{change:>+8.3f} {bound:>6.2f}  {result}"
                )
    print(f"base: {len(args.base)} file(s), head: {len(args.head)} file(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
