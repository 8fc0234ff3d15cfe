"""Index probes are counted one way: by the buckets they read.

An ``InLookup`` sums the buckets of its distinct probes (an equality
probe has one), skipping exactly the probes its ``_stream`` skips: NULL,
and a bool probe against a non-bool column (or the reverse).  Index
lowering ranks access paths by that count (``bucket_rows``), so it must
equal the rows the probe returns.
"""

from unittest import mock

from repro.relational import (
    Database,
    DataType,
    InLookup,
    Query,
    Select,
    TableSchema,
    optimize,
)
from repro.relational.index import HashIndex
from repro.relational.interpret import execute_interpreted


def _db(rows: int = 1000) -> Database:
    db = Database("probes")
    db.create_table(
        TableSchema.build(
            "eav",
            [
                ("record_id", DataType.INTEGER),
                ("kind", DataType.TEXT),
                ("flag", DataType.BOOLEAN),
                ("attribute", DataType.TEXT),
                ("value", DataType.TEXT),
            ],
        )
    )
    db.insert(
        "eav",
        [
            {
                "record_id": i // 4,
                "kind": "bulk" if i % 10 else "rare",
                "flag": i % 2 == 0,
                "attribute": f"a{i % 4}",
                "value": str(i),
            }
            for i in range(rows)
        ],
    )
    table = db.table("eav")
    table.create_index(("kind",))
    table.create_index(("record_id",))
    table.create_index(("flag",))
    return db


def _probe_rows(plan: InLookup, db: Database) -> int:
    """The rows a probe reads: its buckets, or the whole table when no
    index matches (the scan fallback)."""
    if not db.has_table(plan.table):
        return 0
    table = db.table(plan.table)
    rows = plan.bucket_rows(table)
    return len(table) if rows is None else rows


class TestIndexLookupEstimate:
    """An equality probe: a one-value ``InLookup`` reads one bucket."""

    def test_hit_bucket_counts_its_rows(self):
        db = _db()
        assert _probe_rows(InLookup("eav", "kind", ("bulk",)), db) == 900
        assert _probe_rows(InLookup("eav", "kind", ("rare",)), db) == 100

    def test_empty_bucket_counts_zero(self):
        db = _db()
        assert _probe_rows(InLookup("eav", "kind", ("none",)), db) == 0

    def test_scan_fallback_counts_the_table(self):
        db = _db()
        # No index covers ``attribute``: execution scans the whole extent.
        plan = InLookup("eav", "attribute", ("a1",))
        assert _probe_rows(plan, db) == 1000
        assert len(plan.execute(db)) == 250

    def test_missing_table_counts_zero(self):
        assert _probe_rows(InLookup("gone", "kind", ("x",)), _db()) == 0


class TestInLookupEstimate:
    def test_sums_buckets(self):
        db = _db()
        assert _probe_rows(InLookup("eav", "record_id", (1, 2, 3)), db) == 12

    def test_empty_buckets_count_zero(self):
        db = _db()
        assert _probe_rows(InLookup("eav", "record_id", (-1, -2)), db) == 0

    def test_null_probes_are_skipped(self):
        db = _db()
        plan = InLookup("eav", "record_id", (None, 5))
        assert _probe_rows(plan, db) == 4

    def test_bool_probes_skip_like_the_stream(self):
        db = _db()
        # TRUE never SQL-equals the integer 1 (its hash bucket would).
        assert _probe_rows(InLookup("eav", "record_id", (True, 1)), db) == 4
        # ...and on a BOOLEAN column only bool probes count.
        assert _probe_rows(InLookup("eav", "flag", (1, True)), db) == 500
        assert _probe_rows(InLookup("eav", "flag", (False,)), db) == 500

    def test_scan_fallback_counts_the_table(self):
        db = _db()
        plan = InLookup("eav", "attribute", ("a1",))
        assert _probe_rows(plan, db) == 1000

    def test_estimate_matches_the_rows_the_probe_streams(self):
        db = _db()
        for values in [(1, 2, 3), (None, 7), (True, 4), (-1,), ()]:
            plan = InLookup("eav", "record_id", values)
            assert _probe_rows(plan, db) == len(plan.execute(db))


class TestPlanRowEstimate:
    """``bucket_rows`` equals the rows an indexed probe returns."""

    PROBES = [
        InLookup("eav", "flag", (None,)),
        InLookup("eav", "flag", (1,)),
        InLookup("eav", "flag", (None, 1, True)),
        InLookup("eav", "record_id", (True, 1)),
        InLookup("eav", "record_id", (None, 2, 2, 2.0)),
        InLookup("eav", "kind", ("rare",)),
        InLookup("eav", "kind", ("none",)),
    ]

    def test_null_and_bool_probes_count_what_the_probe_returns(self):
        db = _db()
        table = db.table("eav")
        assert InLookup("eav", "flag", (None,)).bucket_rows(table) == 0
        assert InLookup("eav", "flag", (1,)).bucket_rows(table) == 0
        assert InLookup("eav", "record_id", (True, 1)).bucket_rows(table) == 4
        # Repeated or Python-equal probes read one bucket once.
        assert InLookup("eav", "record_id", (1, 1, 1.0)).bucket_rows(table) == 4
        for plan in self.PROBES:
            assert plan.bucket_rows(table) == len(plan.execute(db))

    def test_a_bool_mismatched_probe_counts_and_returns_nothing(self):
        db = _db()
        table = db.table("eav")
        assert InLookup("eav", "flag", (1,)).bucket_rows(table) == 0
        plans = [
            InLookup("eav", "flag", (1,)),
            InLookup("eav", "flag", (0,)),
            InLookup("eav", "record_id", (True,)),
            InLookup("eav", "kind", (None,)),
        ]
        for plan in plans:
            assert len(execute_interpreted(plan, db)) == 0
            assert plan.bucket_rows(table) == 0
        # The hash buckets hold rows (``1 == True``), but none is read.
        assert db.table("eav").matching_index(["flag"]).count((True,)) == 500
        with mock.patch.object(HashIndex, "lookup", side_effect=AssertionError):
            for plan in plans:
                assert plan.execute(db) == []


class TestIndexLowering:
    """Lowering ranks access paths by the rows each probe returns."""

    def test_bool_probes_on_a_boolean_column_read_nothing(self):
        db = _db()
        # ``1`` and ``2`` never SQL-equal a BOOLEAN, so the membership
        # probe reads 0 rows, against 100 for the equality.
        plan = Query.table("eav").where("flag IN (NULL, 1, 2) AND kind = 'rare'").plan
        optimized = optimize(plan, db)
        assert isinstance(optimized, Select)
        assert optimized.child == InLookup("eav", "flag", (1, 2))
        assert optimized.execute(db) == execute_interpreted(plan, db) == []

    def test_true_probe_on_an_integer_column_is_not_counted(self):
        db = _db()
        db.insert(
            "eav",
            [
                {"record_id": 1000 + i, "kind": "six", "flag": True,
                 "attribute": "a0", "value": "x"}
                for i in range(6)
            ],
        )
        # ``TRUE`` never SQL-equals ``1``: the probe returns 4 rows, not
        # the 8 of counting the ``1`` bucket twice, so it beats the 6 of
        # the equality.
        plan = Query.table("eav").where("record_id IN (TRUE, 1) AND kind = 'six'").plan
        optimized = optimize(plan, db)
        assert isinstance(optimized, Select)
        assert optimized.child == InLookup("eav", "record_id", (True, 1))
        assert optimized.execute(db) == execute_interpreted(plan, db) == []
