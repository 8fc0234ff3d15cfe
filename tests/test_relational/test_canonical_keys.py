"""Canonical-key audit: TRUE vs 1 and Decimal ordering, on both executors.

Python's ``True == 1`` / ``hash(True) == hash(1)`` would silently merge a
BOOLEAN ``TRUE`` with an INTEGER ``1`` anywhere values become dict keys —
group-by, DISTINCT, COUNT_DISTINCT, hash-join build sides — even though
``sql_equal`` (and therefore every ``=`` predicate) distinguishes them.
Both executors route keys through :func:`canonical_key`, and these
tests pin that shared behaviour so a future "optimization" reintroducing
raw-value keys in either executor fails loudly.

Table columns coerce on insert (``True`` stored into INTEGER becomes
``1``), so the mixed-type relations here are built from ``Values`` nodes,
which carry literals verbatim.
"""

from decimal import Decimal

from repro.relational import (
    Aggregate,
    AggregateSpec,
    Database,
    Distinct,
    Join,
    Rename,
    Sort,
    Values,
    canonical_key,
    execute_interpreted,
)
from repro.relational.algebra import _sort_key


def _mixed(column="k"):
    return Values((column,), ((True,), (1,), (False,), (0,), (1,), (None,)))


def _all_executors(plan, db=None):
    db = db or Database("keys")
    return [
        execute_interpreted(plan, db),
        plan.execute(db),
    ]


class TestCanonicalKeyFunction:
    def test_bool_and_int_do_not_collide(self):
        assert canonical_key(True) != canonical_key(1)
        assert canonical_key(False) != canonical_key(0)

    def test_identity_for_plain_scalars(self):
        for value in (3, 2.5, "x", None):
            assert canonical_key(value) == value

    def test_unhashable_containers_collapse_to_repr(self):
        assert canonical_key([1, 2]) == repr([1, 2])


class TestDistinct:
    def test_true_and_one_stay_distinct(self):
        for rows in _all_executors(Distinct(_mixed())):
            assert [row["k"] for row in rows] == [True, 1, False, 0, None]


class TestGroupBy:
    def test_groups_keep_bool_int_separate_with_representatives(self):
        plan = Aggregate(_mixed(), ("k",), (AggregateSpec("COUNT", None, "n"),))
        for rows in _all_executors(plan):
            assert [(row["k"], row["n"]) for row in rows] == [
                (True, 1),
                (1, 2),
                (False, 1),
                (0, 1),
                (None, 1),
            ]

    def test_count_distinct_counts_true_and_one_separately(self):
        plan = Aggregate(
            _mixed(), (), (AggregateSpec("COUNT_DISTINCT", "k", "distinct"),)
        )
        for rows in _all_executors(plan):
            # NULL is excluded by COUNT_DISTINCT; True/1/False/0 are four.
            assert [row["distinct"] for row in rows] == [4]


class TestJoinKeys:
    def test_hash_join_does_not_cross_match_bool_and_int(self):
        left = _mixed("k")
        right = Rename(_mixed("k"), (("k", "rk"),))
        plan = Sort(Join(left, right, (("k", "rk"),)), (("k", True),))
        for rows in _all_executors(plan):
            # Each value matches only itself: True×1, 1 appears twice on
            # each side ×4, False×1, 0×1 — and NULL never matches.  If
            # True↔1 or False↔0 cross-matched, extra rows would appear.
            assert [row["k"] for row in rows] == [False, True, 0, 1, 1, 1, 1]


class TestDecimalOrdering:
    def test_sort_key_puts_decimal_in_the_numeric_band(self):
        ordered = sorted(
            [Decimal("10"), 2, Decimal("9"), 2.5, None, "1", True],
            key=_sort_key,
        )
        assert ordered == [None, True, 2, 2.5, Decimal("9"), Decimal("10"), "1"]

    def test_sort_plan_orders_decimals_numerically(self):
        plan = Sort(
            Values(("v",), ((Decimal("10"),), (2,), (Decimal("9"),), (2.5,))),
            (("v", True),),
        )
        for rows in _all_executors(plan):
            assert [row["v"] for row in rows] == [2, 2.5, Decimal("9"), Decimal("10")]
