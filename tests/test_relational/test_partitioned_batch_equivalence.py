"""Batch kernels over partitioned tables ≡ interpreted, randomized.

The only suite that runs the batch kernels over partitioned tables: every
plan runs once through the reference interpreter and once forced through
``Vectorized``, on tables carrying each partitioning scheme in
``_SCHEMES`` (including NULL partition keys), and the two must agree
bit for bit — values *and* order.  Plans cover the operator with no
batch kernel (Unpivot, streamed row-wise inside the tree, feeding the
Pivot kernel), pruned and
multi-partition ``PartitionScan`` leaves, order-sensitive operators
(Aggregate group order, AVG summation order, left-join NULL padding),
and error parity (a query that raises must raise on both paths).
The three-way tests add the streaming executor, and
``TestMutationSequences`` also mutates the table between runs: insert,
update, delete and repartition.

Shrunken batches: the suite patches ``BATCH_SIZE`` down so even 30-row
hypothesis examples span several batches.
"""

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
)
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

# Ages without booleans: no comparison raises, so the streaming path's
# lazy ``Limit`` (DESIGN.md §7) never stops short of a row the
# interpreter raises on, and the streaming leg can be compared exactly.
_int_patient_rows = st.lists(
    st.fixed_dictionaries(
        {
            "patient_id": st.one_of(st.integers(0, 12), st.none()),
            "age": st.one_of(st.integers(0, 5), st.none()),
            "name": st.sampled_from(["ann", "bob", "cal", None]),
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


def _unpivoted() -> Unpivot:
    return Unpivot(
        Scan("patients"),
        id_columns=("patient_id",),
        value_columns=("age", "name"),
        attribute_column="attribute",
        value_column="value",
    )


def _partition_scans(plan) -> list[tuple[int, ...]]:
    return [n.partitions for n in plan.walk() if isinstance(n, PartitionScan)]


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ReproError, TypeError) as exc:
        return ("err", type(exc))


def _assert_batch_agrees(plan, db) -> None:
    """Interpreter and forced-batch execution agree (errors by kind)."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    batch = _outcome(lambda: Vectorized(plan).execute(db))
    if reference[0] == "err":
        assert batch[0] == "err"
    else:
        assert batch == reference


def _assert_three_way(plan, db) -> None:
    """Interpreted ≡ streaming ≡ forced batch (errors by kind)."""
    reference = _outcome(lambda: execute_interpreted(plan, db))
    assert _outcome(lambda: plan.execute(db)) == reference
    _assert_batch_agrees(plan, db)


def _tiny_batches(size: int = 7):
    """Context manager shrinking batches for multi-batch coverage."""

    class _Patch:
        def __enter__(self):
            self.batch = vectorize_mod.BATCH_SIZE
            vectorize_mod.BATCH_SIZE = size
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
    lambda: Aggregate(
        Scan("patients"),
        ("patient_id", "name"),
        (AggregateSpec("MAX", "age", "top"),),
    ),
    # No group-by over a possibly-empty selection: aggregating an empty
    # input still yields one row.
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
    # Error parity: name + 1 raises for every non-null name.
    lambda: Compute(Scan("patients"), (("boom", parse("name + 1")),)),
]


class TestRandomized:
    @given(
        _patient_rows,
        _visit_rows,
        st.integers(0, len(_SCHEMES) - 1),
        st.integers(0, len(_PLANS) - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_two_way_equivalence(self, patients, visits, scheme_i, plan_i):
        db = _load(patients, visits, _SCHEMES[scheme_i])
        plan = _PLANS[plan_i]()
        with _tiny_batches():
            _assert_batch_agrees(plan, db)

    @given(
        _int_patient_rows,
        _visit_rows,
        st.integers(0, len(_SCHEMES) - 1),
        st.integers(0, len(_PLANS) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_way_equivalence(self, patients, visits, scheme_i, plan_i):
        db = _load(patients, visits, _SCHEMES[scheme_i])
        plan = _PLANS[plan_i]()
        with _tiny_batches():
            _assert_three_way(plan, db)

    @given(_patient_rows)
    @settings(max_examples=40, deadline=None)
    def test_forced_rowwise_fallback_inside_batch_tree(self, patients):
        # Unpivot has no batch kernel: the batch executor must stream it
        # row-wise inside the tree, feed the Pivot kernel, and still agree.
        unique = list({row["patient_id"]: row for row in patients}.values())
        db = _load(unique, [], HashPartitioning("patient_id", 3))
        pivoted = Pivot(
            _unpivoted(),
            key_columns=("patient_id",),
            attribute_column="attribute",
            value_column="value",
            attributes=("age", "name"),
        )
        plan = Sort(
            Select(pivoted, parse("age IS NOT NULL")), (("patient_id", True),)
        )
        with _tiny_batches():
            _assert_batch_agrees(plan, db)

    @given(_int_patient_rows, st.integers(0, len(_SCHEMES) - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_kernel_over_rowwise_child(self, patients, scheme_i):
        # A batch Aggregate consuming the row-wise Unpivot stream: rows
        # re-enter batches above the fallback, in the same group order.
        db = _load(patients, [], _SCHEMES[scheme_i])
        plan = Aggregate(
            _unpivoted(),
            ("attribute",),
            (
                AggregateSpec("COUNT", None, "n"),
                AggregateSpec("COUNT", "value", "present"),
            ),
        )
        with _tiny_batches():
            _assert_three_way(plan, db)

    @given(_patient_rows, _visit_rows)
    @settings(max_examples=40, deadline=None)
    def test_pruned_partition_scan_agrees(self, patients, visits):
        db = _load(patients, visits, HashPartitioning("patient_id", 4))
        plan = Select(Scan("patients"), parse("patient_id = 7"))
        optimized = optimize(plan, db)
        reference = execute_interpreted(plan, db)
        with _tiny_batches():
            assert optimized.execute(db) == reference
            assert Vectorized(optimized).execute(db) == reference

    @given(_patient_rows)
    @settings(max_examples=30, deadline=None)
    def test_pruned_range_partition_scan_agrees(self, patients):
        db = _load(patients, [], RangePartitioning("patient_id", (3, 7)))
        plan = Select(Scan("patients"), parse("patient_id = 7 AND age >= 1"))
        optimized = optimize(plan, db)
        assert _partition_scans(optimized) == [(2,)]
        reference = _outcome(lambda: execute_interpreted(plan, db))
        with _tiny_batches():
            assert _outcome(lambda: optimized.execute(db)) == reference
            assert _outcome(lambda: Vectorized(optimized).execute(db)) == reference


def _many_rows(n: int) -> list[dict]:
    return [
        {"patient_id": i % 11, "age": i % 7, "name": f"p{i % 5}"}
        for i in range(n)
    ]


def _name_aggregate() -> Aggregate:
    return Aggregate(
        Select(Scan("patients"), parse("age >= 1")),
        ("name",),
        (
            AggregateSpec("COUNT", None, "n"),
            AggregateSpec("AVG", "age", "mean_age"),
        ),
    )


class TestPartitionScans:
    def test_batch_rows_match_interpreter_over_many_partitions(self):
        # Full-size batches: 3 000 rows span several of them.
        db = _load(_many_rows(3000), [], HashPartitioning("patient_id", 8))
        plan = _name_aggregate()
        reference = execute_interpreted(plan, db)
        assert Vectorized(plan).execute(db) == reference
        assert optimize(plan, db).execute(db) == reference

    def test_rows_identical_across_batch_sizes(self):
        # Batch boundaries fall at different rows of each partition; AVG
        # summation order and group order must not move with them.
        db = _load(_many_rows(3000), [], HashPartitioning("patient_id", 8))
        plan = _name_aggregate()
        reference = execute_interpreted(plan, db)
        for size in (1, 7, 128, 1000):
            with _tiny_batches(size):
                assert Vectorized(plan).execute(db) == reference

    def test_pruned_scan_over_many_rows(self):
        from repro.obs.explain import explain_analyze

        db = _load(_many_rows(2000), [], HashPartitioning("patient_id", 4))
        plan = Select(Scan("patients"), parse("patient_id = 7"))
        optimized = optimize(plan, db)
        assert len(_partition_scans(optimized)) == 1
        assert len(_partition_scans(optimized)[0]) == 1
        reference = execute_interpreted(plan, db)
        assert Vectorized(optimized).execute(db) == reference
        with _tiny_batches(32):
            assert explain_analyze(plan, db).rows == reference

    def test_multi_partition_scan_agrees(self):
        db = _load(_many_rows(100), [], HashPartitioning("patient_id", 5))
        plan = Select(PartitionScan("patients", (1, 2)), parse("age >= 1"))
        with _tiny_batches():
            _assert_batch_agrees(plan, db)


class TestMutationSequences:
    @given(
        _patient_rows,
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_mutations_between_runs_agree(self, patients, mutations):
        """insert/update/delete/repartition between runs; every run agrees
        three ways: interpreted ≡ streaming ≡ batch."""

        with _tiny_batches():
            db = _load(patients, [], HashPartitioning("patient_id", 3))
            table = db.table("patients")
            plan = Select(Scan("patients"), parse("age >= 1 OR name LIKE 'b%'"))
            _assert_three_way(plan, db)
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
                _assert_three_way(plan, db)
