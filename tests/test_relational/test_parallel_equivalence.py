"""Auto-mode routing: ``parallel=N`` ≡ serial batch ≡ interpreted, randomized.

In auto mode the executor sends a stage to worker processes only when
it is big enough to amortize the trip (and the machine has the cores);
every other stage runs inline through the serial batch kernels.  These
suites hold that routing to the strictest guarantee: bit-identical rows
(values *and* order) against the reference interpreter for any worker
count and any partitioning scheme on the underlying tables — including
NULL partition keys, operators with no batch kernel (forced row-wise
fallback inside the tree), and merge-sensitive operators (Aggregate
group order, AVG summation order, left-join NULL padding).  The forced
process path is proven separately, four ways, in
``test_process_parallel_equivalence.py``.

Shrunken batches: the suite patches ``BATCH_SIZE`` down so even 30-row
hypothesis examples span several batches.
"""

import threading

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
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
)
from repro.relational import set_worker_pool_mode
from repro.relational import vectorize as vectorize_mod
from repro.expr.parser import parse

_SCHEMES = [
    None,
    HashPartitioning("patient_id", 2),
    HashPartitioning("patient_id", 5),
    RangePartitioning("patient_id", (3, 7)),
    RangePartitioning("patient_id", (1, 5, 9)),
]

_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.one_of(st.integers(0, 12), st.none()),
            "age": st.one_of(st.integers(0, 5), st.none(), st.booleans()),
            "name": st.sampled_from(["ann", "bob", "cal", None]),
        }
    ),
    max_size=30,
)

_visit_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.one_of(st.integers(0, 12), st.none()),
            "score": st.one_of(st.integers(-3, 9), st.none()),
        }
    ),
    max_size=30,
)


def _load(patients, visits, scheme) -> Database:
    db = Database("par")
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
    db.insert("visits", visits)
    return db


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_parallel_agrees(plan, db, workers) -> None:
    """Interpreter, serial batch, and auto-routed execution agree."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    serial = _outcome(lambda: Vectorized(plan).execute(db))
    par = _outcome(lambda: Vectorized(plan).execute(db, parallel=workers))
    if reference[0] == "err":
        assert serial[0] == par[0] == "err"
    else:
        assert serial == reference
        assert par == reference


def _tiny_batches():
    """Context manager shrinking batches for multi-batch coverage."""

    class _Patch:
        def __enter__(self):
            self.batch = vectorize_mod.BATCH_SIZE
            vectorize_mod.BATCH_SIZE = 7
            return self

        def __exit__(self, *exc):
            vectorize_mod.BATCH_SIZE = self.batch
            return False

    return _Patch()


_PLANS = [
    lambda: Select(Scan("patients"), parse("age >= 2 OR name LIKE 'a%'")),
    lambda: Project(
        Select(Scan("patients"), parse("patient_id IS NOT NULL")),
        ("patient_id", "name"),
    ),
    lambda: Compute(
        Select(Scan("patients"), parse("age >= 0")),
        (("bump", parse("age + 1")),),
    ),
    lambda: Aggregate(
        Select(Scan("patients"), parse("age IS NOT NULL")),
        ("name",),
        (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("AVG", "age", "mean_age"),
        ),
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
    lambda: Distinct(Project(Scan("patients"), ("name",))),
    lambda: Limit(Select(Scan("patients"), parse("age >= 0")), 5),
    lambda: TopK(Scan("visits"), (("score", False),), 4),
    lambda: Union(
        (
            Select(Scan("patients"), parse("age >= 2")),
            Select(Scan("patients"), parse("age < 2")),
        )
    ),
]


class TestRandomizedParallelEquivalence:
    @given(
        _patient_rows,
        _visit_rows,
        st.integers(0, len(_SCHEMES) - 1),
        st.integers(0, len(_PLANS) - 1),
        st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_three_way_equivalence(
        self, patients, visits, scheme_i, plan_i, workers
    ):
        db = _load(patients, visits, _SCHEMES[scheme_i])
        plan = _PLANS[plan_i]()
        with _tiny_batches():
            _assert_parallel_agrees(plan, db, workers)

    @given(_patient_rows, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_forced_rowwise_fallback_inside_parallel_tree(
        self, patients, workers
    ):
        # Pivot/Unpivot have no batch kernels: the auto-routed executor
        # must stream them row-wise inside the tree and still agree.
        unique = list({row["patient_id"]: row for row in patients}.values())
        db = _load(unique, [], HashPartitioning("patient_id", 3))
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
        with _tiny_batches():
            _assert_parallel_agrees(plan, db, workers)

    @given(_patient_rows, _visit_rows, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_pruned_partition_scan_under_parallel(
        self, patients, visits, workers
    ):
        from repro.relational import optimize

        db = _load(patients, visits, HashPartitioning("patient_id", 4))
        plan = Select(Scan("patients"), parse("patient_id = 7"))
        optimized = optimize(plan, db)
        reference = execute_interpreted(plan, db)
        with _tiny_batches():
            assert optimized.execute(db, parallel=workers) == reference


class TestDeterminism:
    def test_parallel_rows_are_bit_identical_across_worker_counts(self):
        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(3000)
        ]
        db = _load(rows, [], HashPartitioning("patient_id", 8))
        plan = Aggregate(
            Select(Scan("patients"), parse("age >= 1")),
            ("name",),
            (
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("AVG", "age", "mean_age"),
            ),
        )
        serial = Vectorized(plan).execute(db)
        for workers in (1, 2, 3, 8):
            assert Vectorized(plan).execute(db, parallel=workers) == serial


class TestAutoModeRouting:
    def test_small_input_runs_every_kernel_on_the_calling_thread(
        self, monkeypatch
    ):
        from repro.obs.explain import explain_analyze

        set_worker_pool_mode(None)
        monkeypatch.delenv("REPRO_WORKER_POOL", raising=False)
        idents = set()
        for node_type, kernel in list(vectorize_mod._KERNELS.items()):

            def recording(plan, ctx, kernel=kernel):
                idents.add(threading.get_ident())
                yield from kernel(plan, ctx)

            monkeypatch.setitem(vectorize_mod._KERNELS, node_type, recording)
        # Several source batches, yet far below the process-routing floor.
        rows = [
            {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
            for i in range(20_000)
        ]
        db = _load(rows, [], None)
        plan = Aggregate(
            Select(Scan("patients"), parse("age >= 1")),
            ("name",),
            (AggregateSpec("COUNT", None, "n"),),
        )
        report = explain_analyze(
            Vectorized(plan), db, optimized=False, executor="parallel", workers=2
        )
        assert report.rows == Vectorized(plan).execute(db)
        assert idents == {threading.get_ident()}
        (attrs,) = [
            span.attrs
            for span in report.execute_span.walk()
            if "pool" in span.attrs
        ]
        assert attrs["pool"] == "serial"
        reasons = {
            entry["reason"].split(":")[0]
            for entry in attrs.get("parallel_fallbacks", ())
        }
        reasons.add(attrs.get("process_pool_disabled"))
        assert reasons & {"small_input", "single_core", "single_worker"}
