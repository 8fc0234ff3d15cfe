"""Streaming executor contracts: laziness and the defensive-copy boundary."""

from dataclasses import dataclass

from repro.expr.ast import BinaryOp, Identifier, Literal
from repro.relational import (
    Database,
    DataType,
    InLookup,
    Plan,
    Project,
    Scan,
    Select,
    Sort,
    TableSchema,
)
from repro.relational.algebra import ExecContext


def _db(n: int = 10) -> Database:
    db = Database("stream")
    db.create_table(
        TableSchema.build("t", [("id", DataType.INTEGER), ("v", DataType.INTEGER)])
    )
    db.insert("t", [{"id": i, "v": i * 2} for i in range(n)])
    db.table("t").create_index(("id",))
    return db


class TestCopyBoundary:
    """``execute`` must hand back rows the caller can freely mutate."""

    def _assert_result_is_detached(self, plan, db):
        before = [dict(row) for row in db.table("t").rows()]
        result = plan.execute(db)
        for row in result:
            row.clear()
            row["junk"] = object()
        assert [dict(r) for r in db.table("t").rows()] == before

    def test_scan_results_detached(self):
        self._assert_result_is_detached(Scan("t"), _db())

    def test_select_over_scan_detached(self):
        plan = Select(Scan("t"), BinaryOp(">=", Identifier.of("v"), Literal(4)))
        self._assert_result_is_detached(plan, _db())

    def test_index_lookup_detached(self):
        self._assert_result_is_detached(InLookup("t", "id", (3,)), _db())

    def test_sort_over_scan_detached(self):
        self._assert_result_is_detached(Sort(Scan("t"), (("v", False),)), _db())

    def test_project_builds_fresh_rows(self):
        plan = Project(Scan("t"), ("id",))
        db = _db()
        first, second = plan.execute(db), plan.execute(db)
        # Every execution builds its own dicts …
        assert {id(row) for row in first}.isdisjoint(map(id, second))
        # … and the result is safely mutable.
        self._assert_result_is_detached(plan, db)

    def test_scans_build_a_new_dict_per_stored_row(self):
        db = _db()
        table = db.table("t")
        assert all(type(column) is list for column in table.stored_columns())
        for plan in (Scan("t"), InLookup("t", "id", (3, 4))):
            stream = plan.stream(ExecContext(db))
            row = next(stream)
            assert type(row) is dict
            row["v"] = -1
            assert next(plan.stream(ExecContext(db)))["v"] != -1


class TestLaziness:
    def test_stream_is_an_iterator(self):
        db = _db(5)
        stream = Select(
            Scan("t"), BinaryOp(">", Identifier.of("id"), Literal(1))
        ).stream(ExecContext(db))
        assert iter(stream) is stream
        assert next(stream)["id"] == 2


class TestExecContextMemo:
    def test_columns_computed_once_per_node(self):
        db = _db()
        calls = []

        @dataclass(frozen=True, eq=False)
        class Probed(Scan):
            def _columns(self, ctx):
                calls.append(self)
                return super()._columns(ctx)

        node = Probed("t")
        ctx = ExecContext(db)
        deep: Plan = node
        for _ in range(20):
            deep = Project(deep, ("id", "v"))
        # Resolving the deep plan's schema touches the scan exactly once.
        assert ctx.columns(deep) == ("id", "v")
        assert ctx.columns(node) == ("id", "v")
        assert len(calls) == 1

    def test_distinct_contexts_do_not_share_state(self):
        db = _db()
        node = Scan("t")
        assert ExecContext(db).columns(node) == ExecContext(db).columns(node)
