"""The paper's workload end to end, as three workloads.

Each workload drives ``repro`` only through its public API, with every
engine setting at its default, and checks every answer it gets against
ground truth.  The program sees only inputs generated from ``--seed``.

* ``clinic_entry``: clinicians enter procedures into three durable
  contributor stores (pure write path: ui, patterns, storage), with
  periodic snapshots, then every store is reopened (recovery).
* ``analyst_studies``: analysts preview Study 1 / Study 2 definitions
  with ``Study.run`` and publish them through the compiled ETL workflow
  (pure read path on static data: guava, relational, multiclass, etl).
* ``live_warehouse``: entry, incremental warehouse refresh and a study
  preview interleave, so every read sees a new data version.

Run one workload in this process with
``python benchmarks/e2e/workloads.py --workload NAME --seed N --seconds S``;
``run.py`` does that in a fresh child interpreter per workload.  The last
line printed is the result document as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from repro.analysis import (
    build_study1,
    build_study2,
    run_study1,
    study1_truth_funnel,
    study2_truth,
    vendor_classifiers_for,
)
from repro.analysis.schema import build_endoscopy_schema
from repro.clinical import ClinicalWorld, build_world, generate_truths
from repro.clinical.cori import (
    build_cori_chain,
    build_cori_tool,
    cori_procedure_values,
)
from repro.clinical.vendors import (
    build_endopro_chain,
    build_endopro_tool,
    build_medscribe_chain,
    build_medscribe_tool,
    endopro_values,
    medscribe_values,
)
from repro.etl import compile_study
from repro.guava.source import GuavaSource
from repro.multiclass.study import StudyResult
from repro.relational import Database
from repro.storage import DurableStore
from repro.storage.engine import state_fingerprint
from repro.warehouse import FullStrategy, MaterializationJob, Warehouse

#: ``--seconds`` at which the sizes below were calibrated (2-core box,
#: Python 3.11).  Operation counts are ``rate × seconds``, so a given
#: ``--seconds`` is the same work on every commit; only the baseline
#: commit measures for about ``--seconds``.
REFERENCE_SECONDS = 15.0
CLINIC_ENTRIES_PER_S = 1000
CLINIC_SNAPSHOTS = 10
ANALYST_WORLD = 1000
ANALYST_REQUESTS_PER_S = 9
LIVE_BASE = 1000
LIVE_PER_ROUND = 20
LIVE_ROUNDS_PER_S = 7

SETUPS = 5
REOPENS = 3
FSYNC = "commit"

#: The host's speed is sampled with a fixed pure-Python probe at least this
#: often, between operations, never inside a timed region.
PROBE_EVERY_S = 0.05
#: The probe's duration on the reference box when it runs at full speed.
#: Times are reported as wall time × REFERENCE_PROBE_S ÷ the probe's
#: duration around that operation ("reference seconds"): the sandbox's
#: speed swings by a third within a second, and the probe cancels that.
REFERENCE_PROBE_S = 0.00030

#: The analyst's request cycle: (label, Study 2 ex-smoker definition or
#: None for Study 1).
STUDY_CYCLE = (("S1", None), ("S2-1y", "1y"), ("S2-10y", "10y"), ("S2-ever", "ever"))

SOURCE_NAMES = ("cori_warehouse_feed", "endopro_clinic", "medscribe_clinic")
SHARES = (0.5, 0.3, 0.2)

Mark = Callable[..., None]


def _no_mark(phase: str, op: object = None) -> None:
    """Phase marker used when nothing records spans."""


# -- sizes -----------------------------------------------------------------


def _ops(rate: float, seconds: float) -> int:
    return max(2, round(rate * seconds))


def _scaled(size: int, seconds: float, floor: int) -> int:
    """``size`` at the reference length; shrunk (never grown) for short runs."""
    return max(floor, round(size * min(1.0, seconds / REFERENCE_SECONDS)))


# -- host speed ------------------------------------------------------------

_PROBE_ROWS = [{"id": i, "value": i * 3} for i in range(5000)]


def _probe_work() -> int:
    # Dict lookups and integer arithmetic, like the engine's row loops, but
    # allocating no containers, so a collection never lands inside it.
    total = 0
    for row in _PROBE_ROWS:
        if row["id"] % 3:
            total += row["value"]
    return total


class Speed:
    """Samples of the host's speed, taken between operations.

    :meth:`between` returns the index of the latest sample; an operation
    tagged with it is scaled by the mean of that sample and the next one,
    which bracket it in time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self.sample()

    def sample(self) -> None:
        durations = []
        for _ in range(3):
            began = time.perf_counter()
            _probe_work()
            durations.append(time.perf_counter() - began)
        self.samples.append(statistics.median(durations))
        self._last = time.perf_counter()

    def between(self, force: bool = False) -> int:
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Reference seconds per wall second for an operation tagged ``index``."""
        later = self.samples[min(index + 1, len(self.samples) - 1)]
        return REFERENCE_PROBE_S / ((self.samples[index] + later) / 2)

    def reference_ms(self, segments: list[tuple[float, int]]) -> float:
        """Reference milliseconds of (wall seconds, sample index) segments."""
        return sum(wall * self.scale(index) for wall, index in segments) * 1000


# -- statistics ------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- contributors ----------------------------------------------------------


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


def _enter_endopro(session, truth) -> None:
    session.enter("endoscopy_report", endopro_values(truth))


def _enter_medscribe(session, truth) -> None:
    session.enter("visit", medscribe_values(truth))


CONTRIBUTORS = {
    "cori_warehouse_feed": (build_cori_tool, build_cori_chain, _enter_cori),
    "endopro_clinic": (build_endopro_tool, build_endopro_chain, _enter_endopro),
    "medscribe_clinic": (
        build_medscribe_tool,
        build_medscribe_chain,
        _enter_medscribe,
    ),
}


class Contributor:
    """One clinic: a durable store with a GUAVA source and an open session."""

    def __init__(self, name: str, directory: Path):
        build_tool, build_chain, self._enter = CONTRIBUTORS[name]
        self.name = name
        self.directory = directory
        self.store = DurableStore(directory, name=name, fsync=FSYNC)
        tool = build_tool()
        self.source = GuavaSource(name, tool, build_chain(tool), db=self.store.db)
        self.store.attach_source(self.source)
        self.session = self.source.session()
        self.truths: list = []
        self.warehouse: Warehouse | None = None
        self.strategy: FullStrategy | None = None

    def enter(self, truth, commit: bool = True) -> None:
        """All of one procedure's screens, then (by default) a commit."""
        self._enter(self.session, truth)
        self.truths.append(truth)
        if commit:
            self.store.commit()

    def attach_warehouse(self) -> None:
        """A full materialization of this source into its own store."""
        self.warehouse = Warehouse(db=self.store.db)
        self.store.attach_warehouse(self.warehouse)
        self.strategy = FullStrategy(materialization_job(self.source), self.warehouse)
        self.strategy.build()
        self.store.commit()

    def disk_bytes(self) -> tuple[int, int]:
        """(WAL bytes, snapshot bytes) on disk."""
        wal = snapshots = 0
        for path in self.directory.iterdir():
            if path.suffix == ".snap":
                snapshots += path.stat().st_size
            elif path.name == "wal.log":
                wal += path.stat().st_size
        return wal, snapshots


def materialization_job(source: GuavaSource) -> MaterializationJob:
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


def route(count: int, seed: int) -> list[int]:
    """Contributor index per procedure, drawn as ``build_world`` draws it."""
    rng = random.Random(seed * 31 + 5)
    indexes = range(len(SOURCE_NAMES))
    return [rng.choices(indexes, weights=SHARES)[0] for _ in range(count)]


def open_clinics(directory: Path) -> list[Contributor]:
    directory.mkdir(parents=True)
    return [Contributor(name, directory / name) for name in SOURCE_NAMES]


def live_world(clinics: list[Contributor], truths: list) -> ClinicalWorld:
    """A world view over the clinics; it grows as they enter procedures."""
    return ClinicalWorld(
        truths=truths,
        sources=[clinic.source for clinic in clinics],
        truths_by_source={clinic.name: clinic.truths for clinic in clinics},
    )


# -- oracles ---------------------------------------------------------------


class Outcomes:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        """Count one operation; ``problem`` says why it failed, if it did."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(problem)


def attempt(label: str, action: Callable[[], object]) -> tuple[object, str | None]:
    """Run one operation: (its value, None) or (None, why it raised)."""
    try:
        return action(), None
    except Exception as exc:  # noqa: BLE001 - a failed operation must not end the run
        return None, f"{label}: {type(exc).__name__}: {exc}"


def study2_counts(rows: list[dict]) -> tuple[int, int]:
    ex = [row for row in rows if row["ExSmoker_flag"] is True]
    return len(ex), sum(1 for row in ex if row["AnyHypoxia_flag"] is True)


def study_problem(kind: tuple[str, str | None], world, rows: list[dict]) -> str | None:
    """None when ``rows`` answer the study exactly as ground truth does."""
    label, definition = kind
    if definition is None:
        measured = run_study1(world, StudyResult(label, {"Procedure": rows}))
        truth = study1_truth_funnel(world)
        if measured != truth:
            return f"{label}: funnel {measured} != truth {truth}"
        return None
    expected = study2_truth(world, definition)
    measured = study2_counts(rows)
    if measured != (expected.ex_smokers, expected.ex_smokers_with_hypoxia):
        return f"{label}: counts {measured} != truth {expected}"
    return None


def build_study(kind: tuple[str, str | None], world):
    _, definition = kind
    if definition is None:
        return build_study1(world)
    return build_study2(world, definition)


def multiset(rows: list[dict]) -> Counter:
    return Counter(tuple(sorted(row.items())) for row in rows)


# -- workloads -------------------------------------------------------------


def _timed_setups(
    speed: Speed,
    setup: Callable[[int], object],
    discard: Callable[[object], None],
):
    """Run ``setup`` SETUPS times; (median reference seconds, last state)."""
    timings = []
    state = None
    for number in range(SETUPS):
        if state is not None:
            discard(state)
        index = speed.between(force=True)
        began = time.perf_counter()
        state = setup(number)
        timings.append((time.perf_counter() - began, index))
    speed.sample()
    return statistics.median(speed.reference_ms([t]) for t in timings) / 1000, state


def _close_all(clinics: list[Contributor]) -> None:
    for clinic in clinics:
        clinic.store.close()


def clinic_entry(seed: int, seconds: float, workdir: Path, mark: Mark) -> dict:
    entries = _ops(CLINIC_ENTRIES_PER_S, seconds)
    snapshot_every = max(1, entries // CLINIC_SNAPSHOTS)
    outcomes = Outcomes()
    speed = Speed()

    def setup(number: int):
        clinics = open_clinics(workdir / f"setup{number}")
        return clinics, generate_truths(entries, seed=seed), route(entries, seed)

    mark("setup")
    setup_s, (clinics, truths, routing) = _timed_setups(
        speed, setup, lambda state: _close_all(state[0])
    )

    # (entry seconds, entry + inline snapshot seconds, speed sample index)
    timings: list[tuple[float, float, int]] = []
    perf = time.perf_counter
    for op, (truth, index) in enumerate(zip(truths, routing)):
        clinic = clinics[index]
        sample = speed.between()
        mark("measured", op)
        began = perf()
        _, problem = attempt("entry", lambda: clinic.enter(truth))
        entered = perf()
        if (op + 1) % snapshot_every == snapshot_every // 2:
            for each in clinics:
                outcomes.record(attempt("snapshot", each.store.snapshot)[1])
        timings.append((entered - began, perf() - began, sample))
        outcomes.record(problem)
    rss_mb = peak_rss_mb()

    mark("check")
    wal_bytes = snapshot_bytes = 0
    for clinic in clinics:
        wal, snapshots = clinic.disk_bytes()
        wal_bytes += wal
        snapshot_bytes += snapshots
    fingerprints = [state_fingerprint(clinic.store.db) for clinic in clinics]
    _close_all(clinics)

    def reopen() -> list[DurableStore]:
        return [
            DurableStore(clinic.directory, name=clinic.name, fsync=FSYNC)
            for clinic in clinics
        ]

    recoveries: list[tuple[float, int]] = []
    replayed = 0
    for number in range(REOPENS):
        sample = speed.between(force=True)
        mark("measured", f"recover{number}")
        began = perf()
        stores, problem = attempt("recover", reopen)
        recoveries.append((perf() - began, sample))
        mark("check")
        if stores is not None:
            replayed += sum(store.report.replayed for store in stores)
            if [state_fingerprint(store.db) for store in stores] != fingerprints:
                problem = "recover: reopened state differs from the live state"
            for store in stores:
                store.close()
            stores = None
        outcomes.record(problem)
    speed.sample()

    entry_ms = [speed.reference_ms([(wall, i)]) for wall, _, i in timings]
    entry_wall = speed.reference_ms([(wall, i) for _, wall, i in timings]) / 1000
    recover_ms = [speed.reference_ms([recovery]) for recovery in recoveries]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "op_ms": entry_ms,
        "ops_per_s": entries / entry_wall,
        "measured_wall_s": sum(wall for _, wall, _ in timings)
        + sum(wall for wall, _ in recoveries),
        "reference_wall_s": entry_wall + sum(recover_ms) / 1000,
        "speed": speed,
        "outcomes": outcomes,
        "detail": {
            "entry_p50_ms": (statistics.median(entry_ms), "ms"),
            "entry_p99_ms": (percentile(entry_ms, 99), "ms"),
            "entries_per_s": (entries / entry_wall, "1/s"),
            "recover_ms": (statistics.median(recover_ms), "ms"),
            "disk_bytes_per_entry": ((wal_bytes + snapshot_bytes) / entries, "B"),
        },
        "counts": {
            "entries": entries,
            "wal_bytes_per_entry": wal_bytes / entries,
            "snapshot_bytes_per_entry": snapshot_bytes / entries,
            "recover_replayed": replayed / REOPENS,
        },
    }


def analyst_studies(seed: int, seconds: float, workdir: Path, mark: Mark) -> dict:
    requests = _ops(ANALYST_REQUESTS_PER_S, seconds)
    size = _scaled(ANALYST_WORLD, seconds, floor=40)
    outcomes = Outcomes()
    speed = Speed()

    mark("setup")
    setup_s, world = _timed_setups(
        speed, lambda _: build_world(size, seed=seed), lambda _: None
    )

    # Per request: (preview, publish), each as (seconds, speed sample index).
    timings: list[tuple[tuple[float, int], tuple[float, int]]] = []
    perf = time.perf_counter
    for op in range(requests):
        kind = STUDY_CYCLE[op % len(STUDY_CYCLE)]
        warehouse = Database("wh")
        sample = speed.between(force=True)
        mark("measured", op)
        began = perf()
        result, preview_problem = attempt(
            kind[0], lambda: build_study(kind, world).run()
        )
        preview = (perf() - began, sample)
        sample = speed.between(force=True)
        began = perf()
        _, publish_problem = attempt(
            kind[0], lambda: compile_study(build_study(kind, world), warehouse).run()
        )
        timings.append((preview, (perf() - began, sample)))
        mark("check")
        if result is not None:
            preview_problem = study_problem(kind, world, result.rows("Procedure"))
        outcomes.record(preview_problem)
        if publish_problem is None:
            (table,) = warehouse.table_names()
            loaded = warehouse.table(table).rows()
            publish_problem = study_problem(kind, world, loaded)
            first_cycle = op < len(STUDY_CYCLE)
            if publish_problem is None and first_cycle and result is not None:
                if multiset(loaded) != multiset(result.rows("Procedure")):
                    publish_problem = f"{kind[0]}: ETL rows differ from Study.run rows"
        outcomes.record(publish_problem)
    rss_mb = peak_rss_mb()
    speed.sample()

    study_ms = [speed.reference_ms([preview]) for preview, _ in timings]
    etl_ms = [speed.reference_ms([publish]) for _, publish in timings]
    op_ms = [study + etl for study, etl in zip(study_ms, etl_ms)]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "op_ms": op_ms,
        "ops_per_s": requests / (sum(op_ms) / 1000),
        "measured_wall_s": sum(a[0] + b[0] for a, b in timings),
        "reference_wall_s": sum(op_ms) / 1000,
        "speed": speed,
        "outcomes": outcomes,
        "detail": {
            "study_p50_ms": (statistics.median(study_ms), "ms"),
            "study_p90_ms": (percentile(study_ms, 90), "ms"),
            "etl_p50_ms": (statistics.median(etl_ms), "ms"),
            "etl_p90_ms": (percentile(etl_ms, 90), "ms"),
        },
        "counts": {},
    }


def live_warehouse(seed: int, seconds: float, workdir: Path, mark: Mark) -> dict:
    rounds = _ops(LIVE_ROUNDS_PER_S, seconds)
    base = _scaled(LIVE_BASE, seconds, floor=30)
    total = base + rounds * LIVE_PER_ROUND
    outcomes = Outcomes()
    speed = Speed()

    def setup(number: int):
        clinics = open_clinics(workdir / f"setup{number}")
        truths = generate_truths(total, seed=seed)
        routing = route(total, seed)
        for truth, index in zip(truths[:base], routing[:base]):
            clinics[index].enter(truth, commit=False)
        for clinic in clinics:
            clinic.store.commit()
            clinic.attach_warehouse()
        return clinics, truths, routing

    mark("setup")
    setup_s, (clinics, truths, routing) = _timed_setups(
        speed, setup, lambda state: _close_all(state[0])
    )
    entered = truths[:base]
    world = live_world(clinics, entered)

    # Per round: (entries, refresh, study) as lists of (seconds, sample).
    timings: list[tuple[list, list, list]] = []
    perf = time.perf_counter
    for op in range(rounds):
        kind = STUDY_CYCLE[op % len(STUDY_CYCLE)]
        first = base + op * LIVE_PER_ROUND
        batch = zip(
            truths[first : first + LIVE_PER_ROUND],
            routing[first : first + LIVE_PER_ROUND],
        )
        problems = []
        entries: list[tuple[float, int]] = []
        sample = speed.between(force=True)
        mark("measured", op)
        for truth, index in batch:
            clinic = clinics[index]
            began = perf()
            problems.append(attempt("entry", lambda: clinic.enter(truth))[1])
            entries.append((perf() - began, sample))
            entered.append(truth)
        sample = speed.between(force=True)
        began = perf()
        for clinic in clinics:
            problems.append(
                attempt("refresh", lambda: clinic.strategy.build(incremental=True))[1]
            )
            problems.append(attempt("commit", clinic.store.commit)[1])
        refresh = [(perf() - began, sample)]
        sample = speed.between(force=True)
        began = perf()
        result, previewed = attempt(kind[0], lambda: build_study(kind, world).run())
        timings.append((entries, refresh, [(perf() - began, sample)]))
        mark("check")
        if result is not None:
            previewed = study_problem(kind, world, result.rows("Procedure"))
        for problem in problems + [previewed]:
            outcomes.record(problem)
    rss_mb = peak_rss_mb()
    speed.sample()

    mark("check")
    for clinic in clinics:
        reference = Warehouse()
        FullStrategy(materialization_job(clinic.source), reference).build()
        key = lambda row: (row["source"], row["record_id"])  # noqa: E731
        refreshed = sorted(clinic.warehouse.table("mat_procedure").rows(), key=key)
        rebuilt = sorted(reference.table("mat_procedure").rows(), key=key)
        outcomes.record(
            None
            if refreshed == rebuilt
            else f"{clinic.name}: refreshed mat_procedure differs from a rebuild"
        )
    _close_all(clinics)

    entry_ms = [
        speed.reference_ms([entry]) for entries, _, _ in timings for entry in entries
    ]
    refresh_ms = [speed.reference_ms(refresh) for _, refresh, _ in timings]
    study_ms = [speed.reference_ms(study) for _, _, study in timings]
    round_ms = [speed.reference_ms(sum(parts, [])) for parts in timings]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "op_ms": round_ms,
        "ops_per_s": rounds / (sum(round_ms) / 1000),
        "measured_wall_s": sum(wall for parts in timings for wall, _ in sum(parts, [])),
        "reference_wall_s": sum(round_ms) / 1000,
        "speed": speed,
        "outcomes": outcomes,
        "detail": {
            "entry_p50_ms": (statistics.median(entry_ms), "ms"),
            "entry_p99_ms": (percentile(entry_ms, 99), "ms"),
            "refresh_p50_ms": (statistics.median(refresh_ms), "ms"),
            "refresh_p90_ms": (percentile(refresh_ms, 90), "ms"),
            "study_p50_ms": (statistics.median(study_ms), "ms"),
            "study_p90_ms": (percentile(study_ms, 90), "ms"),
        },
        "counts": {"entries": len(entry_ms), "refreshes": rounds},
    }


RUNNERS = {
    "clinic_entry": clinic_entry,
    "analyst_studies": analyst_studies,
    "live_warehouse": live_warehouse,
}


def run_workload(name: str, seed: int, seconds: float, mark: Mark = _no_mark) -> dict:
    """Run one workload; the result document (metrics, detail, counts)."""
    with tempfile.TemporaryDirectory(prefix=f"e2e-{name}-") as workdir:
        raw = RUNNERS[name](seed, seconds, Path(workdir), mark)
    outcomes: Outcomes = raw["outcomes"]
    op_ms = raw["op_ms"]
    metrics = {
        "setup_s": (raw["setup_s"], "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (percentile(op_ms, 90), "ms"),
        "ops_per_s": (raw["ops_per_s"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    detail = dict(raw["detail"])
    detail["error_rate"] = (outcomes.failed / outcomes.attempted, "fraction")
    probes = raw["speed"].samples
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "fsync": FSYNC,
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.reasons,
        "ops": len(op_ms),
        "measured_wall_s": raw["measured_wall_s"],
        "reference_wall_s": raw["reference_wall_s"],
        "speed_probe_ms": {
            "samples": len(probes),
            "median": statistics.median(probes) * 1000,
            "min": min(probes) * 1000,
            "max": max(probes) * 1000,
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "counts": raw["counts"],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    if not args.trace:
        result = run_workload(args.workload, args.seed, args.seconds)
    else:
        from layers import Recorder

        recorder = Recorder()
        with recorder.installed():
            result = run_workload(args.workload, args.seed, args.seconds, recorder.mark)
        result["layers"] = recorder.layer_metrics(result)
        result["layer_table"] = recorder.table(result["measured_wall_s"])
        if args.spans:
            recorder.write_spans(args.spans, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
