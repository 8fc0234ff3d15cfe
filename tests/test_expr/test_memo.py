"""The identity memo behind every per-AST cache (``repro.expr.memo``)."""

from __future__ import annotations

import gc
import weakref

from repro.expr import compile as compile_module
from repro.expr.ast import Literal
from repro.expr.memo import IdentityMemo


class TestIdentityMemo:
    def test_keys_by_identity_not_equality(self):
        memo: IdentityMemo[str] = IdentityMemo()
        one, true = Literal(1), Literal(True)
        assert one == true  # dataclass equality aliases them
        memo.put(one, "int")
        assert memo.get(one) == "int"
        assert memo.get(true) is None
        assert memo.get(Literal(1)) is None

    def test_an_entry_keeps_its_key_alive(self):
        memo: IdentityMemo[str] = IdentityMemo()
        key = Literal("kept")
        alive = weakref.ref(key)
        memo.put(key, "text")
        del key
        gc.collect()
        assert alive() is not None
        assert memo.get(alive()) == "text"
        memo.clear()
        gc.collect()
        assert alive() is None

    def test_an_insert_at_the_limit_clears_every_entry(self):
        memo: IdentityMemo[int] = IdentityMemo(limit=3)
        keys = [Literal(n) for n in range(4)]
        for n, key in enumerate(keys[:3]):
            assert memo.put(key, n) == n
        assert [memo.get(key) for key in keys] == [0, 1, 2, None]
        memo.put(keys[3], 3)
        assert len(memo) == 1
        assert [memo.get(key) for key in keys] == [None, None, None, 3]


class TestCompileMemo:
    def test_equal_literals_compile_apart(self):
        zero, false = Literal(0), Literal(False)
        for _ in range(2):  # each call lowers its literal afresh
            value = compile_module.compile_expression(zero)({})
            assert type(value) is int and value == 0
            assert compile_module.compile_expression(false)({}) is False
