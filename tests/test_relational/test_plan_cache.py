"""Plan cache: memoized optimize(), planned once per shape.

The cache exists for GUAVA pattern chains, which pull structurally
identical plans on every read.  The invariants under test:

* a repeat ``optimize`` while the plan's assumptions hold returns the
  *same plan object* and applies zero rewrites (observable as an
  ``optimize`` span with ``plan_cache="hit"`` and no ``rewrite.*``
  counters);
* every mutation class — insert, update, delete, index create/drop,
  table create/drop — bumps :attr:`Database.epoch`, and it never rewinds,
  even when ``drop_table`` discards a table whose versions contributed;
* an entry is valid while :attr:`Database.plan_epoch` (tables and
  indexes) is unchanged and the tables whose estimates picked it have
  drifted at most ``PLANNING_STALENESS_FRACTION`` in row count — so a
  mutate-then-query sequence is never served a stale plan, yet inserts
  alone do not replan;
* no plan depends on an exact data version: conjuncts keep their
  authored order, so a cached plan raises exactly where the interpreted
  oracle does after the data changes the conjuncts' type bands.
"""

from repro.obs import explain_analyze, tracing
from repro.relational import (
    Database,
    DataType,
    IndexLookup,
    Plan,
    Query,
    Select,
    TableSchema,
    optimize,
    plan_fingerprint,
)


def _db(rows: int = 8) -> Database:
    db = Database("cache")
    db.create_table(
        TableSchema.build(
            "patients",
            [("patient_id", DataType.INTEGER), ("age", DataType.INTEGER)],
        )
    )
    db.insert(
        "patients",
        [{"patient_id": i, "age": 20 + i % 5} for i in range(rows)],
    )
    return db


def _contains(plan: Plan, node_type: type) -> bool:
    if isinstance(plan, node_type):
        return True
    return any(_contains(child, node_type) for child in plan.children())


class TestFingerprint:
    def test_structurally_identical_plans_share_a_fingerprint(self):
        a = Query.table("patients").where("age >= 30").select("patient_id").plan
        b = Query.table("patients").where("age >= 30").select("patient_id").plan
        assert a is not b
        assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_different_plans_differ(self):
        base = Query.table("patients")
        assert plan_fingerprint(base.where("age >= 30").plan) != plan_fingerprint(
            base.where("age >= 31").plan
        )
        assert plan_fingerprint(base.plan) != plan_fingerprint(
            Query.table("visits").plan
        )

    def test_literal_types_are_distinguished(self):
        # TRUE vs 1 compare differently at runtime, so their plans must not
        # collide in the cache either.
        true_plan = Query.table("patients").where("age = TRUE").plan
        one_plan = Query.table("patients").where("age = 1").plan
        assert plan_fingerprint(true_plan) != plan_fingerprint(one_plan)


class TestCacheHits:
    def test_repeat_optimize_returns_cached_object(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        second = optimize(plan, db)
        assert second is first
        # A structurally identical but distinct plan object also hits.
        third = optimize(Query.table("patients").where("age >= 30").plan, db)
        assert third is first

    def test_cache_hit_skips_rewrites_observably(self):
        db = _db()
        db.table("patients").create_index(("patient_id",))
        query = (
            Query.table("patients")
            .where("patient_id = 3")
            .where("age >= 20")
            .select("patient_id")
            .plan
        )
        warm = explain_analyze(query, db)
        assert warm.optimize_span is not None
        assert warm.optimize_span.attrs.get("plan_cache") == "miss"
        assert warm.rewrites_applied()  # lowering actually ran

        cached = explain_analyze(query, db)
        assert cached.optimize_span is not None
        assert cached.optimize_span.attrs.get("plan_cache") == "hit"
        assert cached.rewrites_applied() == {}
        assert cached.rows == warm.rows

    def test_no_database_means_no_cache(self):
        plan = Query.table("patients").where("age >= 30").plan
        assert optimize(plan) is not optimize(plan)
        with tracing() as tracer:
            optimize(plan)
        (span,) = [root for root in tracer.roots if root.name == "optimize"]
        assert span.attrs.get("plan_cache") == "off"


class TestInvalidation:
    def test_insert_keeps_a_data_free_plan(self):
        # The row-path plan of a one-conjunct filter consumed no data (no
        # estimate chose it, no certificate proved it), so it outlives any
        # number of inserts.
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        before, plan_epoch = db.epoch, db.plan_epoch
        db.insert("patients", [{"patient_id": 90 + i, "age": 44} for i in range(20)])
        assert db.epoch > before
        assert db.plan_epoch == plan_epoch
        assert optimize(plan, db) is first

    def test_estimates_hold_until_the_row_count_drifts(self):
        # Two index paths compete, so bucket sizes picked the plan: it is
        # reused within PLANNING_STALENESS_FRACTION of the planned count
        # and replanned beyond it.
        db = _db(100)
        db.table("patients").create_index(("age",))
        db.table("patients").create_index(("patient_id",))
        plan = Query.table("patients").where("age = 22 AND patient_id IN (2, 7)").plan
        first = optimize(plan, db)
        db.insert("patients", [{"patient_id": 100 + i, "age": 44} for i in range(10)])
        assert optimize(plan, db) is first
        db.insert("patients", [{"patient_id": 200, "age": 44}])
        replanned = optimize(plan, db)
        assert replanned is not first
        assert [row["patient_id"] for row in replanned.execute(db)] == [
            row["patient_id"] for row in Query(plan).execute(db, optimized=False)
        ]

    def test_mutate_then_query_sees_new_rows(self):
        db = _db()
        query = Query.table("patients").where("age >= 100")
        assert query.execute(db) == []
        db.insert("patients", [{"patient_id": 99, "age": 120}])
        assert [row["patient_id"] for row in query.execute(db)] == [99]

    def test_update_and_delete_bump_epoch(self):
        db = _db()
        table = db.table("patients")
        before = db.epoch
        table.update(lambda row: row["patient_id"] == 0, {"age": 99})
        after_update = db.epoch
        assert after_update > before
        table.delete(lambda row: row["patient_id"] == 0)
        assert db.epoch > after_update

    def test_index_create_and_drop_bump_epoch(self):
        db = _db()
        table = db.table("patients")
        before = db.epoch
        table.create_index(("age",))
        created = db.epoch
        assert created > before
        # Idempotent re-create of an existing index changes nothing.
        table.create_index(("age",))
        assert db.epoch == created
        table.drop_index(("age",))
        assert db.epoch > created

    def test_table_create_and_drop_bump_epoch(self):
        db = _db()
        before = db.epoch
        db.create_table(TableSchema.build("extra", [("x", DataType.INTEGER)]))
        created = db.epoch
        assert created > before
        db.drop_table("extra")
        assert db.epoch > created

    def test_epoch_never_rewinds_on_drop_table(self):
        # The dropped table's version/index contributions fold into the
        # structure version, so the epoch stays strictly monotone.
        db = _db()
        db.create_table(TableSchema.build("scratch", [("x", DataType.INTEGER)]))
        db.insert("scratch", [{"x": i} for i in range(10)])
        db.table("scratch").create_index(("x",))
        peak = db.epoch
        db.drop_table("scratch")
        assert db.epoch > peak


class TestZoneMapCertificates:
    """Zone maps certify no reorder: a cached plan keeps the authored
    conjunct order, so once the data crosses bands it raises exactly
    where the interpreted oracle raises, and never where it does not."""

    @staticmethod
    def _db() -> Database:
        db = Database("bands")
        db.create_table(
            TableSchema.build(
                "t",
                [("id", DataType.INTEGER), ("k", DataType.TEXT), ("x", DataType.INTEGER)],
            )
        )
        db.insert("t", [{"id": i, "k": "ab"[i % 2], "x": None} for i in range(40)])
        return db

    @staticmethod
    def _outcome(run):
        try:
            return sorted(row["id"] for row in run())
        except Exception as error:  # noqa: BLE001 - comparing outcomes
            return type(error).__name__

    def test_cached_plan_raises_where_the_oracle_does_after_crossing_bands(self):
        from repro.relational.interpret import execute_interpreted

        db = self._db()
        # ``x > 'abc'`` cannot raise while every x is NULL, and is the
        # more selective conjunct; it still runs second.
        plan = Query.table("t").where("k = 'a' AND x > 'abc'").plan
        first = optimize(plan, db)
        (select,) = [node for node in first.walk() if isinstance(node, Select)]
        assert select.predicate == plan.predicate

        # Crossing bands where ``k = 'a'`` is False: no plan compares that x.
        db.insert("t", [{"id": 100, "k": "b", "x": 5}])
        assert optimize(plan, db) is first
        assert self._outcome(lambda: first.execute(db)) == self._outcome(
            lambda: execute_interpreted(plan, db)
        )

        # The raising case: a row that reaches the comparison raises under
        # the cached plan and the oracle alike.
        db.insert("t", [{"id": 101, "k": "a", "x": 6}])
        interpreted = self._outcome(lambda: execute_interpreted(plan, db))
        assert isinstance(interpreted, str)
        assert optimize(plan, db) is first
        assert self._outcome(lambda: first.execute(db)) == interpreted

    def test_an_uncertified_plan_survives_inserts(self):
        db = self._db()
        db.insert("t", [{"id": 100, "k": "b", "x": 5}])
        plan = Query.table("t").where("k = 'a' AND x > 'abc'").plan
        first = optimize(plan, db)
        db.insert("t", [{"id": 101, "k": "b", "x": 7}])
        assert optimize(plan, db) is first


class TestStaleIndexRegression:
    def test_dropped_index_plan_is_not_served(self):
        """A cached IndexLookup plan must be re-lowered after drop_index."""
        db = _db()
        db.table("patients").create_index(("patient_id",))
        plan = Query.table("patients").where("patient_id = 3").plan
        lowered = optimize(plan, db)
        assert _contains(lowered, IndexLookup)
        assert [row["patient_id"] for row in lowered.execute(db)] == [3]

        db.table("patients").drop_index(("patient_id",))
        relowered = optimize(plan, db)
        assert relowered is not lowered
        assert not _contains(relowered, IndexLookup)
        assert [row["patient_id"] for row in relowered.execute(db)] == [3]

    def test_prepare_stream_plan_settles_into_the_cache(self):
        # ``prepare_stream_plan`` may *create* a supporting index, bumping
        # the epoch mid-call; its re-optimize then stores a fresh entry, so
        # subsequent plain ``optimize`` calls hit it.
        from repro.relational import prepare_stream_plan

        db = _db()
        plan = Query.table("patients").where("patient_id = 3").plan
        prepared = prepare_stream_plan(plan, db)
        assert _contains(prepared, IndexLookup)
        assert optimize(plan, db) is prepared


class TestCacheBounds:
    def test_cache_clears_at_capacity(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        for i in range(Database.PLAN_CACHE_LIMIT):
            optimize(Query.table("patients").where(f"age >= {i + 100}").plan, db)
        # The flood evicted the original entry; re-optimize yields a new one.
        assert optimize(plan, db) is not first

    def test_plan_cache_clear(self):
        db = _db()
        plan = Query.table("patients").where("age >= 30").plan
        first = optimize(plan, db)
        db.plan_cache_clear()
        assert optimize(plan, db) is not first
