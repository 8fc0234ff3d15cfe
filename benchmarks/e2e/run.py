"""End-to-end benchmark of the paper's workload (see README.md).

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload clinic_entry --seed 7 \\
        --seconds 15 --trace 0 [--json PATH] [--spans DIR]

Without ``--workload`` every workload runs in turn.  Each workload runs in
a fresh child interpreter (``workloads.py``), so warm caches and peak RSS
do not leak between workloads; one client thread drives it in a closed
loop.  ``--trace 1`` runs the workload untraced and then traced, and
reports the per-layer metrics plus the tracing overhead (traced ÷ untraced
measured time).  The last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer``
metrics with ``--trace 1``.  The exit code is nonzero when any operation
failed or returned a wrong answer.

Scratch files live in ``.bench_tmp/`` under the checkout and are removed
at exit.  The run refuses to start when a ``REPRO_*`` variable is set,
because those select engine paths and the benchmark measures the defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: A workload's runs (untraced, and traced with ``--trace 1``) must end
#: within 180 s; leave room to print and clean up.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_of(path: Path) -> str:
    """The type of the filesystem ``path`` is on (from the mount table)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def provenance(scratch: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "scratch_filesystem": filesystem_of(scratch),
    }


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    scratch: Path,
    deadline: float,
    spans: Path | None,
) -> dict:
    """Run one workload in a fresh interpreter; its result document."""
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if traced else "0",
    ]
    if spans is not None:
        command += ["--spans", str(spans / f"{workload}.spans.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # Keep every scratch file inside the checkout, and make hash-ordered
    # iteration a function of the seed like the rest of the inputs.
    env["TMPDIR"] = str(scratch)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"{workload}: no time left before the deadline")
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: did not finish in time") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: child printed no result")
    return json.loads(lines[-1])


def print_layer_table(result: dict) -> None:
    print(f"-- {result['workload']}: self time in the measured phase (traced)")
    print(f"{'layer':<11} {'callable':<30} {'calls':>9} {'self ms':>10} {'share':>7}")
    for row in result["layer_table"]:
        print(
            f"{row['layer']:<11} {row['callable']:<30} {row['calls']:>9} "
            f"{row['self_ms']:>10.1f} {row['share_pct']:>6.1f}%"
        )
    layers = result["layers"]
    print(
        f"tracing overhead {layers['trace.overhead_x']['value']:.3f}x, "
        f"relational.parallel_executions "
        f"{layers['relational.parallel_executions']['value']:.0f}"
    )


def print_summary(result: dict) -> None:
    print(
        f"-- {result['workload']} seed {result['seed']}: {result['ops']} ops, "
        f"{result['failed']}/{result['attempted']} failed"
    )
    for name, metric in {**result["metrics"], **result["detail"]}.items():
        print(f"   {name:<24} {metric['value']:>14.4f} {metric['unit']}")
    for reason in result["failures"]:
        print(f"   FAILED: {reason}")


def main(argv: list[str]) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every result document here")
    parser.add_argument("--spans", help="directory for the traced runs' spans")
    args = parser.parse_args(argv)

    engine_settings = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if engine_settings:
        print(
            f"refusing to run: {', '.join(engine_settings)} set; the benchmark "
            "measures the engine's defaults",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    chosen = [args.workload] if args.workload else workloads
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    reported = spec["per_layer" if args.trace else "end_to_end"]

    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    stamp = provenance(scratch)
    spans = Path(args.spans) if args.spans and args.trace else None
    if spans is not None:
        spans.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for workload in chosen:
            deadline = time.monotonic() + DEADLINE_S
            result = run_child(
                workload, args.seed, seconds, False, scratch, deadline, None
            )
            print_summary(result)
            if args.trace:
                traced = run_child(
                    workload, args.seed, seconds, True, scratch, deadline, spans
                )
                traced["layers"]["trace.overhead_x"] = {
                    "value": traced["reference_wall_s"] / result["reference_wall_s"],
                    "unit": "x",
                }
                result["layers"] = traced["layers"]
                result["layer_table"] = traced["layer_table"]
                result["traced_attempted"] = traced["attempted"]
                result["traced_failed"] = traced["failed"]
                print_layer_table(result)
            results.append(result)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it

    if args.json:
        document = {"provenance": stamp, "runs": results}
        Path(args.json).write_text(json.dumps(document, indent=1))

    attempted = failed = 0
    metrics = {}
    for result in results:
        attempted += result["attempted"] + result.get("traced_attempted", 0)
        failed += result["failed"] + result.get("traced_failed", 0)
        values = result["layers"] if args.trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric in reported:
            metrics[prefix + metric["name"]] = values[metric["name"]]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
