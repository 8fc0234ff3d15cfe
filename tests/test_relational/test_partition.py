"""Partitioned tables: schemes, pruning, maintenance, cache invalidation.

The safety contract under test is that pruning only ever narrows the
*scanned superset* — the full original predicate always survives as a
residual ``Select`` above the ``PartitionScan`` — so every pruned query
must return bit-identical rows to the interpreter on the unpruned plan,
including at range boundaries, for NULL partition keys, and across hash
collisions.  A ``PartitionScan`` carrying partition ids a repartition has
invalidated must degrade to a full scan, never to missing rows.
"""

import pytest

from repro.errors import SchemaError
from repro.obs import explain_analyze
from repro.relational import (
    Database,
    DataType,
    HashPartitioning,
    PartitionScan,
    Plan,
    Query,
    RangePartitioning,
    Scan,
    Select,
    TableSchema,
    execute_interpreted,
    optimize,
)


def _contains(plan: Plan, node_type: type) -> bool:
    if isinstance(plan, node_type):
        return True
    return any(_contains(child, node_type) for child in plan.children())


def _find(plan: Plan, node_type: type):
    if isinstance(plan, node_type):
        return plan
    for child in plan.children():
        found = _find(child, node_type)
        if found is not None:
            return found
    return None


def _hash_db(rows: int = 400, partitions: int = 8) -> Database:
    db = Database("part")
    db.create_table(
        TableSchema.build(
            "vitals",
            [
                ("patient_id", DataType.INTEGER),
                ("hr", DataType.INTEGER),
            ],
            partition_by=HashPartitioning("patient_id", partitions),
        )
    )
    db.insert(
        "vitals",
        [
            {
                "patient_id": None if i % 19 == 0 else i % 60,
                "hr": 40 + i % 120,
            }
            for i in range(rows)
        ],
    )
    return db


def _range_db() -> Database:
    db = Database("part")
    db.create_table(
        TableSchema.build(
            "labs",
            [("day", DataType.INTEGER), ("value", DataType.FLOAT)],
            partition_by=RangePartitioning("day", [10, 20, 30]),
        )
    )
    db.insert(
        "labs",
        [
            {"day": None if i % 23 == 0 else i % 40, "value": float(i)}
            for i in range(300)
        ],
    )
    return db


def _assert_pruned_agrees(db: Database, condition: str, table: str = "vitals"):
    """Optimized plan prunes (or not) but always matches the interpreter."""
    plan = Query.table(table).where(condition).plan
    optimized = optimize(plan, db)
    assert optimized.execute(db) == execute_interpreted(plan, db)
    return optimized


class TestSchemes:
    def test_hash_spreads_and_is_stable(self):
        scheme = HashPartitioning("patient_id", 8)
        assert scheme.partition_count == 8
        for value in (0, 1, 17, "abc", 2.5):
            pid = scheme.partition_of(value)
            assert 0 <= pid < 8
            assert scheme.partition_of(value) == pid

    def test_nulls_go_to_the_null_partition(self):
        for scheme in (
            HashPartitioning("k", 4),
            RangePartitioning("k", (10,)),
        ):
            assert scheme.partition_of(None) == scheme.null_partition == 0

    def test_bool_and_int_keys_do_not_collide_by_accident(self):
        # hash(True) == hash(1) in Python; the scheme must still be usable
        # because the residual predicate separates them — but partition_of
        # must at least be deterministic for each.
        scheme = HashPartitioning("k", 4)
        assert scheme.partition_of(True) == scheme.partition_of(True)
        assert scheme.partition_of(1) == scheme.partition_of(1)

    def test_range_boundaries_define_half_open_bands(self):
        scheme = RangePartitioning("day", (10, 20, 30))
        assert scheme.partition_count == 4
        assert scheme.partition_of(9) == 0
        assert scheme.partition_of(10) == 1
        assert scheme.partition_of(19) == 1
        assert scheme.partition_of(20) == 2
        assert scheme.partition_of(30) == 3
        assert scheme.partition_of(10_000) == 3

    def test_range_boundaries_must_increase(self):
        with pytest.raises(SchemaError):
            RangePartitioning("day", (10, 10))
        with pytest.raises(SchemaError):
            RangePartitioning("day", (20, 10))
        with pytest.raises(SchemaError):
            RangePartitioning("day", ())

    def test_partition_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema.build(
                "t",
                [("a", DataType.INTEGER)],
                partition_by=HashPartitioning("missing", 4),
            )


class TestMaintenance:
    def test_inserts_land_in_their_partitions(self):
        db = _hash_db(rows=100)
        table = db.table("vitals")
        counts = table.partition_row_counts()
        assert sum(counts) == 100
        scheme = table.partitioning
        for pid in range(table.partition_count):
            for row in table.rows_at(table.partition_positions(pid)):
                assert scheme.partition_of(row["patient_id"]) == pid

    def test_update_and_delete_rebuild_partitions(self):
        db = _hash_db(rows=60)
        table = db.table("vitals")
        table.update(lambda row: row["hr"] > 100, {"patient_id": 59})
        table.delete(lambda row: row["hr"] <= 50)
        counts = table.partition_row_counts()
        assert sum(counts) == len(table)
        scheme = table.partitioning
        for pid in range(table.partition_count):
            for row in table.rows_at(table.partition_positions(pid)):
                assert scheme.partition_of(row["patient_id"]) == pid

    def test_partition_scan_preserves_insertion_order(self):
        db = _hash_db(rows=200)
        full = PartitionScan(
            "vitals", tuple(range(db.table("vitals").partition_count))
        )
        assert full.execute(db) == Scan("vitals").execute(db)


class TestPruning:
    def test_point_lookup_prunes_to_one_partition(self):
        db = _hash_db()
        optimized = _assert_pruned_agrees(db, "patient_id = 17")
        scan = _find(optimized, PartitionScan)
        assert scan is not None
        assert len(scan.partitions) == 1
        # The residual Select stays above the pruned scan.
        assert isinstance(optimized, Select) or _contains(optimized, Select)

    def test_in_list_prunes_to_member_partitions(self):
        db = _hash_db()
        optimized = _assert_pruned_agrees(db, "patient_id IN (3, 17, 40)")
        scan = _find(optimized, PartitionScan)
        assert scan is not None
        assert len(scan.partitions) <= 3

    def test_is_null_prunes_to_null_partition(self):
        db = _hash_db()
        optimized = _assert_pruned_agrees(db, "patient_id IS NULL")
        scan = _find(optimized, PartitionScan)
        assert scan is not None
        assert scan.partitions == (0,)

    def test_equals_null_literal_matches_nothing(self):
        db = _hash_db()
        plan = Query.table("vitals").where("patient_id = NULL").plan
        optimized = optimize(plan, db)
        assert optimized.execute(db) == execute_interpreted(plan, db) == []

    def test_hash_collisions_stay_correct(self):
        # Two partitions only: every value collides with many others; the
        # residual predicate must still isolate the queried key exactly.
        db = _hash_db(partitions=2)
        for pid in (0, 1, 17, 59):
            _assert_pruned_agrees(db, f"patient_id = {pid}")

    def test_range_edges_prune_exactly(self):
        db = _range_db()
        for condition in (
            "day = 10",
            "day = 9",
            "day = 30",
            "day < 10",
            "day <= 10",
            "day < 20",
            "day >= 20",
            "day > 30",
            "day >= 30",
            "day >= 10 AND day < 20",
            "day > 5 AND day <= 25",
        ):
            _assert_pruned_agrees(db, condition, table="labs")

    def test_strict_less_than_boundary_excludes_upper_partition(self):
        scheme = RangePartitioning("day", (10, 20, 30))
        # day < 20 can only live in partitions 0 and 1.
        assert scheme.partitions_for_compare("<", 20) == frozenset({0, 1})
        assert scheme.partitions_for_compare("<=", 20) == frozenset({0, 1, 2})
        assert scheme.partitions_for_compare(">=", 20) == frozenset({2, 3})

    def test_unanalyzable_conjuncts_do_not_prune(self):
        db = _hash_db()
        plan = Query.table("vitals").where("hr > 100").plan
        optimized = optimize(plan, db)
        assert not _contains(optimized, PartitionScan)
        assert optimized.execute(db) == execute_interpreted(plan, db)

    def test_mixed_conjunction_prunes_on_the_key_conjunct(self):
        db = _hash_db()
        optimized = _assert_pruned_agrees(db, "patient_id = 5 AND hr > 90")
        scan = _find(optimized, PartitionScan)
        assert scan is not None
        assert len(scan.partitions) == 1

    def test_disjunction_does_not_prune(self):
        db = _hash_db()
        optimized = _assert_pruned_agrees(db, "patient_id = 5 OR hr > 90")
        assert not _contains(optimized, PartitionScan)

    def test_prune_is_recorded_and_metered(self):
        db = _hash_db(partitions=16)
        report = explain_analyze(
            Query.table("vitals").where("patient_id = 17"), db
        )
        assert report.rewrites_applied().get("partition_prune") == 1
        scan_spans = [
            span
            for _, span in report.node_spans()
            if span.attrs.get("access_path") == "partition"
        ]
        assert scan_spans, "PartitionScan span missing"
        attrs = scan_spans[0].attrs
        assert attrs["partitions_scanned"] == 1
        assert attrs["partitions_pruned"] == 15
        assert attrs["partitions_total"] == 16

    def test_unpartitioned_table_never_prunes(self):
        db = Database("plain")
        db.create_table(
            TableSchema.build("t", [("k", DataType.INTEGER)])
        )
        db.insert("t", [{"k": i} for i in range(50)])
        optimized = optimize(Query.table("t").where("k = 3").plan, db)
        assert not _contains(optimized, PartitionScan)


class TestStaleFallback:
    def test_out_of_range_partition_ids_fall_back_to_full_scan(self):
        db = _hash_db(rows=50)
        stale = Select(
            PartitionScan("vitals", (97,)),
            Query.table("vitals").where("patient_id = 3").plan.predicate,
        )
        fresh = Query.table("vitals").where("patient_id = 3").plan
        assert stale.execute(db) == execute_interpreted(fresh, db)

    def test_unpartitioned_table_with_partition_scan_falls_back(self):
        db = _hash_db(rows=50)
        db.table("vitals").repartition(None)
        stale = PartitionScan("vitals", (1, 2))
        assert stale.execute(db) == Scan("vitals").execute(db)
        assert execute_interpreted(stale, db) == Scan("vitals").execute(db)


class TestRepartitionInvalidation:
    def test_repartition_bumps_epoch_and_replans(self):
        db = _hash_db(partitions=4)
        plan = Query.table("vitals").where("patient_id = 17").plan
        first = optimize(plan, db)
        assert first is optimize(plan, db), "expected a cache hit"
        before = db.epoch
        db.table("vitals").repartition(HashPartitioning("patient_id", 16))
        assert db.epoch > before
        second = optimize(plan, db)
        assert second is not first
        scan = _find(second, PartitionScan)
        assert scan is not None
        assert all(pid < 16 for pid in scan.partitions)
        assert second.execute(db) == execute_interpreted(plan, db)

    def test_repartition_to_none_drops_pruning(self):
        db = _hash_db()
        plan = Query.table("vitals").where("patient_id = 17").plan
        assert _contains(optimize(plan, db), PartitionScan)
        db.table("vitals").repartition(None)
        replanned = optimize(plan, db)
        assert not _contains(replanned, PartitionScan)
        assert replanned.execute(db) == execute_interpreted(plan, db)

    def test_repartition_between_scheme_kinds(self):
        db = _range_db()
        plan = Query.table("labs").where("day >= 20").plan
        pruned = optimize(plan, db)
        reference = execute_interpreted(plan, db)
        assert pruned.execute(db) == reference
        db.table("labs").repartition(HashPartitioning("day", 6))
        replanned = optimize(plan, db)
        # Hash schemes cannot serve range predicates: pruning must vanish
        # rather than scan a wrong subset.
        scan = _find(replanned, PartitionScan)
        assert scan is None
        assert replanned.execute(db) == reference

    def test_repartition_requires_existing_column(self):
        db = _hash_db()
        with pytest.raises(SchemaError):
            db.table("vitals").repartition(HashPartitioning("nope", 4))
