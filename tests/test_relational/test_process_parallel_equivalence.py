"""Process-parallel executor ≡ serial batch ≡ streaming ≡ interpreted.

The process pool is the fourth implementation of plan semantics and the
only one to cross a process boundary, so this suite forces the pool mode
to ``process`` (the auto policy would run small inputs, and everything on
single-vCPU CI, serially) and proves the strictest guarantee four ways:
bit-identical rows (values *and* order) against the reference
interpreter, the row-at-a-time streaming executor, and the serial batch
executor — over *mutating* workloads (insert/update/delete/repartition
between runs, proving a stale segment file is never read), forced worker
crashes, error-raising queries (error-type parity through the pickled
exception transfer), operators without batch kernels inside the tree,
and pruned partition scans.

Shrunken chunks: ``segments.BATCH_SIZE`` and ``MORSEL_BATCHES`` are
patched down so 30-row examples split across several descriptors and
actually exercise claiming, partial merges, and task-order absorption.
Worker processes are unaffected by the patching (they read chunk
boundaries from the segment file itself), which is exactly the point:
the descriptors fully describe the work.
"""

import pickle
import signal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParallelExecutionError, ReproError
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Compute,
    Database,
    DataType,
    Distinct,
    HashPartitioning,
    Join,
    Limit,
    PartitionScan,
    Pivot,
    Project,
    RangePartitioning,
    Scan,
    Select,
    Sort,
    TableSchema,
    TopK,
    Union,
    Unpivot,
    Vectorized,
    execute_interpreted,
    optimize,
    set_worker_pool_mode,
    worker_pool_mode,
)
from repro.relational import parallel as parallel_mod
from repro.relational import procpool
from repro.storage import segments as segments_mod
from repro.storage.segments import (
    SegmentScan,
    cached_table_segment,
    table_segment,
)
from repro.expr.parser import parse


@pytest.fixture(autouse=True, scope="module")
def _force_process_pool():
    """Force descriptor-capable stages onto real worker processes."""
    set_worker_pool_mode("process")
    yield
    set_worker_pool_mode(None)
    procpool.shutdown_worker_pools()


class _tiny_chunks:
    """Context manager shrinking segment chunks and morsels.

    Patches the *segment* chunk size — that is what decides worker batch
    boundaries — and the morsel length, so small inputs span many tasks.
    """

    def __init__(self, batch: int = 7, morsel: int = 1):
        self._batch = batch
        self._morsel = morsel

    def __enter__(self):
        self.batch = segments_mod.BATCH_SIZE
        self.morsel = parallel_mod.MORSEL_BATCHES
        segments_mod.BATCH_SIZE = self._batch
        parallel_mod.MORSEL_BATCHES = self._morsel
        return self

    def __exit__(self, *exc):
        segments_mod.BATCH_SIZE = self.batch
        parallel_mod.MORSEL_BATCHES = self.morsel
        return False


_SCHEMES = [
    None,
    HashPartitioning("patient_id", 3),
    RangePartitioning("patient_id", (3, 7)),
]

_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.one_of(st.integers(0, 12), st.none()),
            "age": st.one_of(st.integers(0, 5), st.none()),
            "name": st.sampled_from(["ann", "bob", "cal", None]),
        }
    ),
    max_size=30,
)


def _load(patients, scheme=None) -> Database:
    db = Database("proc")
    db.create_table(
        TableSchema.build(
            "patients",
            [
                ("patient_id", DataType.INTEGER),
                ("age", DataType.INTEGER),
                ("name", DataType.TEXT),
            ],
            partition_by=scheme,
        )
    )
    db.create_table(
        TableSchema.build(
            "visits",
            [("patient_id", DataType.INTEGER), ("score", DataType.INTEGER)],
        )
    )
    db.insert("patients", patients)
    db.insert(
        "visits",
        [{"patient_id": i % 13, "score": i % 9} for i in range(20)],
    )
    return db


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_four_way(plan, db, workers=2) -> None:
    reference = _outcome(lambda: execute_interpreted(plan, db))
    streaming = _outcome(lambda: plan.execute(db))
    serial = _outcome(lambda: Vectorized(plan).execute(db))
    process = _outcome(lambda: Vectorized(plan).execute(db, parallel=workers))
    if reference[0] == "err":
        assert serial[0] == process[0] == "err"
    else:
        assert streaming == reference
        assert serial == reference
        assert process == reference


_PLANS = [
    lambda: Select(Scan("patients"), parse("age >= 2 OR name LIKE 'a%'")),
    lambda: Project(
        Compute(
            Select(Scan("patients"), parse("patient_id IS NOT NULL")),
            (("bump", parse("age + 1")),),
        ),
        ("patient_id", "bump", "name"),
    ),
    lambda: Aggregate(
        Select(Scan("patients"), parse("age IS NOT NULL")),
        ("name",),
        (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("AVG", "age", "mean_age"),
        ),
    ),
    lambda: Join(
        Select(Scan("patients"), parse("patient_id IS NOT NULL")),
        Scan("visits"),
        (("patient_id", "patient_id"),),
        how="inner",
    ),
    lambda: Join(
        Scan("patients"),
        Scan("visits"),
        (("patient_id", "patient_id"),),
        how="left",
    ),
    lambda: Sort(
        Select(Scan("patients"), parse("age >= 1")),
        (("patient_id", True), ("name", False)),
    ),
    lambda: Aggregate(
        Scan("patients"),
        ("patient_id", "name"),
        (AggregateSpec("MAX", "age", "top"),),
    ),
    # No group-by over a possibly-empty selection: the one-row empty-input
    # case must survive the partial-merge path too.
    lambda: Aggregate(
        Select(Scan("patients"), parse("age > 99")),
        (),
        (AggregateSpec("COUNT", None, "n"),),
    ),
    lambda: Distinct(Project(Scan("patients"), ("name",))),
    lambda: Limit(Select(Scan("patients"), parse("age >= 0")), 5),
    lambda: TopK(Scan("visits"), (("score", False),), 4),
    lambda: Union(
        (
            Select(Scan("patients"), parse("age >= 2")),
            Select(Scan("patients"), parse("age < 2")),
        )
    ),
    # Error parity across the process boundary: name + 1 raises for
    # non-null names, and the worker's pickled exception must come back
    # as the same type the serial executors raise.
    lambda: Compute(Scan("patients"), (("boom", parse("name + 1")),)),
]


class TestRandomizedFourWayEquivalence:
    @given(
        _patient_rows,
        st.integers(0, len(_SCHEMES) - 1),
        st.integers(0, len(_PLANS) - 1),
        st.integers(1, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_four_way_equivalence(self, patients, scheme_i, plan_i, workers):
        with _tiny_chunks():
            db = _load(patients, _SCHEMES[scheme_i])
            _assert_four_way(_PLANS[plan_i](), db, workers)

    @given(
        _patient_rows,
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_mutations_never_serve_stale_segments(self, patients, mutations):
        """insert/update/delete/repartition between runs; every run agrees."""
        with _tiny_chunks():
            db = _load(patients, HashPartitioning("patient_id", 3))
            table = db.table("patients")
            plan = Select(
                Scan("patients"), parse("age >= 1 OR name LIKE 'b%'")
            )
            _assert_four_way(plan, db)
            for kind in mutations:
                if kind == 0:
                    table.insert({"patient_id": 7, "age": 1, "name": "new"})
                elif kind == 1:
                    table.update(
                        lambda row: row["age"] is not None and row["age"] >= 3,
                        {"name": "upd"},
                    )
                elif kind == 2:
                    table.delete(lambda row: row["patient_id"] == 2)
                else:
                    table.repartition(HashPartitioning("patient_id", 4))
                _assert_four_way(plan, db)

    @given(_patient_rows, st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_rowwise_operators_inside_process_tree(self, patients, workers):
        # Pivot/Unpivot have no batch kernels: they stream row-wise inside
        # the tree while the Scan-side stages below run on processes.
        unique = list({row["patient_id"]: row for row in patients}.values())
        with _tiny_chunks():
            db = _load(unique, HashPartitioning("patient_id", 3))
            unpivoted = Unpivot(
                Scan("patients"),
                id_columns=("patient_id",),
                value_columns=("age", "name"),
                attribute_column="attribute",
                value_column="value",
            )
            pivoted = Pivot(
                unpivoted,
                key_columns=("patient_id",),
                attribute_column="attribute",
                value_column="value",
                attributes=("age", "name"),
            )
            plan = Sort(
                Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),)
            )
            _assert_four_way(plan, db, workers)

    @given(_patient_rows, st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_pruned_partition_scan_on_processes(self, patients, workers):
        with _tiny_chunks():
            db = _load(patients, HashPartitioning("patient_id", 4))
            plan = Select(Scan("patients"), parse("patient_id = 7"))
            reference = execute_interpreted(plan, db)
            assert optimize(plan, db).execute(db, parallel=workers) == reference


def _executor_attrs(report):
    for span in report.execute_span.walk():
        if "pool" in span.attrs:
            return span.attrs
    raise AssertionError("no executor gauges found in trace")


class TestPartitionPruning:
    def test_pruned_single_partition_scan_runs_on_processes(self):
        from repro.obs.explain import explain_analyze

        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(2000)
        ]
        with _tiny_chunks(batch=32):
            db = _load(rows, HashPartitioning("patient_id", 4))
            plan = Select(Scan("patients"), parse("patient_id = 7"))
            report = explain_analyze(plan, db, executor="parallel", workers=2)
            assert report.rows == execute_interpreted(plan, db)
            attrs = _executor_attrs(report)
            assert attrs["pool"] == "process"

    def test_multi_partition_scan_falls_back_to_serial(self):
        from repro.obs.explain import explain_analyze

        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(100)
        ]
        with _tiny_chunks():
            db = _load(rows, HashPartitioning("patient_id", 5))
            plan = Vectorized(
                Select(
                    PartitionScan("patients", (1, 2)),
                    parse("age >= 1"),
                )
            )
            report = explain_analyze(
                plan, db, optimized=False, executor="parallel", workers=2
            )
            attrs = _executor_attrs(report)
            assert attrs["pool"] == "serial"
            reasons = {
                entry["reason"] for entry in attrs["parallel_fallbacks"]
            }
            assert "multi_partition_order" in reasons


class TestDeterminismAndTraces:
    def test_rows_bit_identical_across_worker_counts(self):
        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(3000)
        ]
        with _tiny_chunks(batch=128, morsel=2):
            db = _load(rows, HashPartitioning("patient_id", 8))
            plan = Aggregate(
                Select(Scan("patients"), parse("age >= 1")),
                ("name",),
                (
                    AggregateSpec("COUNT", None, "n"),
                    AggregateSpec("AVG", "age", "mean_age"),
                ),
            )
            serial = Vectorized(plan).execute(db)
            for workers in (1, 2, 3):
                assert (
                    Vectorized(plan).execute(db, parallel=workers) == serial
                )

    def test_worker_spans_are_regrafted_into_parent_trace(self):
        from repro.obs.explain import explain_analyze

        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(500)
        ]
        with _tiny_chunks(batch=64):
            db = _load(rows)
            plan = Select(Scan("patients"), parse("age >= 1"))
            report = explain_analyze(plan, db, executor="parallel", workers=2)
            attrs = _executor_attrs(report)
            assert attrs["pool"] == "process"
            workers = [
                span
                for span in report.execute_span.walk()
                if span.name.startswith("process-worker-")
            ]
            assert workers, "worker spans were not grafted into the trace"
            for span in workers:
                assert span.attrs["pool"] == "process"
                assert span.attrs["morsels"] == len(span.children)
                assert span.children, "worker span has no per-morsel children"

    def test_utilization_report_names_the_process_pool(self):
        from repro.obs.explain import explain_analyze

        rows = [
            {"patient_id": i, "age": i % 5, "name": "x"} for i in range(300)
        ]
        with _tiny_chunks(batch=32):
            db = _load(rows)
            plan = Select(Scan("patients"), parse("age >= 1"))
            report = explain_analyze(plan, db, executor="parallel", workers=2)
            utilization = _executor_attrs(report)["worker_utilization"]
            assert utilization and all(
                entry["pool"] == "process" for entry in utilization
            )


class TestCrashRobustness:
    def test_more_morsels_than_the_pipes_hold_do_not_deadlock(self):
        """1 250 specs out and 20 000 rows back overflow both OS pipe
        buffers, so dispatch has to interleave with reading results."""
        rows = [
            {"patient_id": i, "age": i % 5, "name": f"name-{i}"}
            for i in range(20_000)
        ]

        def expire(signum, frame):
            raise TimeoutError("process pool deadlocked")

        with _tiny_chunks(batch=16):
            db = _load(rows)
            plan = Select(Scan("patients"), parse("age >= 0"))
            reference = Vectorized(plan).execute(db)
            previous = signal.signal(signal.SIGALRM, expire)
            signal.alarm(120)
            try:
                assert Vectorized(plan).execute(db, parallel=2) == reference
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)

    def test_sigkilled_worker_surfaces_parallel_execution_error(self):
        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(400)
        ]
        with _tiny_chunks(batch=32):
            db = _load(rows)
            plan = Select(Scan("patients"), parse("age >= 1"))
            reference = Vectorized(plan).execute(db)
            procpool.set_crash_hook(0)
            try:
                with pytest.raises(
                    ParallelExecutionError, match="died mid-morsel"
                ):
                    Vectorized(plan).execute(db, parallel=2)
            finally:
                procpool.set_crash_hook(None)
            # The wounded pool was destroyed; the next run restarts it.
            assert Vectorized(plan).execute(db, parallel=2) == reference

    def test_run_specs_direct_crash_and_restart(self):
        pool = procpool.ProcessWorkerPool(2)
        specs = [
            {"mode": "pipeline", "plan": b"irrelevant", "__sigkill__": True}
        ]
        with pytest.raises(ParallelExecutionError):
            pool.run_specs(specs)
        # Pool restarts; a well-formed spec now executes.
        db = _load([{"patient_id": 1, "age": 2, "name": "a"}])
        segment = table_segment(db.table("patients"))
        plan = SegmentScan(
            str(segment.path),
            ("patient_id", "age", "name"),
            tuple(range(segment.chunk_count)),
        )
        results, accounts = pool.run_specs(
            [{"mode": "pipeline", "plan": pickle.dumps(plan)}]
        )
        (packed,) = results
        ((columns, data, length),) = packed
        assert length == 1 and data["name"] == ["a"]
        assert accounts and accounts[0][3], "worker returned no spans"


class TestFallbackPolicy:
    def test_thread_mode_is_rejected(self):
        with pytest.raises(ValueError):
            set_worker_pool_mode("thread")
        assert worker_pool_mode() == "process"

    def test_env_variable_resolves_mode(self, monkeypatch):
        set_worker_pool_mode(None)
        try:
            monkeypatch.setenv("REPRO_WORKER_POOL", "process")
            assert worker_pool_mode() == "process"
            monkeypatch.setenv("REPRO_WORKER_POOL", "thread")
            assert worker_pool_mode() == "auto"
            monkeypatch.delenv("REPRO_WORKER_POOL")
            assert worker_pool_mode() == "auto"
        finally:
            set_worker_pool_mode("process")

    def test_auto_mode_small_input_runs_serially(self, monkeypatch):
        from repro.obs.explain import explain_analyze

        set_worker_pool_mode(None)
        monkeypatch.delenv("REPRO_WORKER_POOL", raising=False)
        try:
            rows = [
                {"patient_id": i, "age": i % 5, "name": "x"}
                for i in range(400)
            ]
            db = _load(rows)
            plan = Select(Scan("patients"), parse("age >= 1"))
            report = explain_analyze(plan, db, executor="parallel", workers=2)
            attrs = _executor_attrs(report)
            assert attrs["pool"] == "serial"
            if "parallel_fallbacks" in attrs:
                reasons = {
                    entry["reason"].split(":")[0]
                    for entry in attrs["parallel_fallbacks"]
                }
                assert reasons <= {"small_input", "cold_segment"}
            else:
                # Single-core boxes gate earlier: the whole process pool
                # is off, which the trace must say.
                assert attrs["process_pool_disabled"] in (
                    "single_core",
                    "single_worker",
                )
        finally:
            set_worker_pool_mode("process")


class TestColdPartitionPaging:
    def test_cold_partition_pages_from_its_segment_file(self):
        """Larger-than-memory discipline in miniature: a partition's rows
        stream chunk-by-chunk out of the mmap-backed file, and the whole
        file is written once, up front, on first (cold) access."""
        rows = [
            {
                "patient_id": i % 11,
                "age": i % 100,
                "name": f"patient-{i % 997}",
            }
            for i in range(30_000)
        ]
        with _tiny_chunks(batch=64, morsel=4):
            db = _load(rows, HashPartitioning("patient_id", 11))
            table = db.table("patients")
            plan = Select(Scan("patients"), parse("patient_id = 3"))
            optimized = optimize(plan, db)
            assert cached_table_segment(table, 3) is None  # cold
            reference = execute_interpreted(plan, db)
            assert optimized.execute(db, parallel=2) == reference
            segment = cached_table_segment(table, 3)
            assert segment is not None and segment.path.stat().st_size > 0
            assert segment.chunk_count > 10  # genuinely paged many chunks
