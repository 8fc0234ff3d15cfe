"""Smoke tests of the end-to-end benchmark, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def clean_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def run_benchmark(*args: str, env: dict[str, str], cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seed", "3", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    done = run_benchmark("--seconds", str(SECONDS), "--trace", trace, env=clean_env())
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in SPEC["workloads"]
        for metric in SPEC[section]
    }
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_a_wrong_oracle_answer_counts_as_a_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    truth = workloads.study2_truth

    def off_by_one(world, definition="ever"):
        answer = truth(world, definition)
        answer.ex_smokers += 1
        return answer

    monkeypatch.setattr(workloads, "study2_truth", off_by_one)
    result = workloads.run_workload("analyst_studies", 3, SECONDS)
    assert not result["correct"] and result["failed"] > 0
    assert result["detail"]["error_rate"]["value"] > 0


def bindings() -> dict[tuple, object]:
    """Every place a traced callable is bound: (owner, name) -> object."""
    found: dict[tuple, object] = {}
    for _, module_name, owner, attribute, _ in layers.TARGETS:
        module = importlib.import_module(module_name)
        if owner is not None:
            cls = getattr(module, owner)
            found[cls, attribute] = cls.__dict__[attribute]
            continue
        function = getattr(module, attribute)
        for site in list(sys.modules.values()):
            for key, value in list(getattr(site, "__dict__", {}).items()):
                if value is function:
                    found[site.__name__, key] = value
    return found


def test_a_traced_run_restores_every_wrapped_callable(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    before = bindings()
    recorder = layers.Recorder()
    with recorder.installed():
        during = bindings()
        result = workloads.run_workload("live_warehouse", 3, SECONDS, recorder.mark)
    assert during.keys() == before.keys()
    assert all(during[key] is not before[key] for key in before)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert result["correct"] and recorder.spans
    reported = set(recorder.layer_metrics(result)) | {"trace.overhead_x"}
    assert reported == {metric["name"] for metric in SPEC["per_layer"]}


def test_a_repro_variable_is_refused():
    env = clean_env()
    env["REPRO_WORKER_POOL"] = "process"
    done = run_benchmark("--workload", "clinic_entry", "--seconds", "1", env=env)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_benchmark(
        "--workload", "clinic_entry", "--seconds", "1", env=clean_env(), cwd=tmp_path
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
