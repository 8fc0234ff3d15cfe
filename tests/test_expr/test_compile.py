"""Compiled expressions must match the tree-walking evaluator exactly."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError, UnknownIdentifierError
from repro.expr import parse
from repro.expr.ast import (
    BinaryOp,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.expr.compile import compile_expression, compile_predicate
from repro.expr.evaluator import Evaluator

_EVALUATOR = Evaluator()


def _both(expr, env):
    """Evaluate interpreted and compiled; normalize outcome to (kind, value)."""
    outcomes = []
    for run in (
        lambda: _EVALUATOR.evaluate(expr, env),
        lambda: compile_expression(expr)(env),
    ):
        try:
            outcomes.append(("ok", run()))
        except (EvaluationError, UnknownIdentifierError) as error:
            outcomes.append(("error", type(error).__name__))
    return outcomes


class TestUnitEquivalence:
    @pytest.mark.parametrize(
        "source,env,expected",
        [
            ("1 + 2 * 3", {}, 7),
            ("age >= 50", {"age": 64}, True),
            ("age >= 50", {"age": 40}, False),
            ("age >= 50", {"age": None}, None),
            ("NOT flag", {"flag": False}, True),
            ("a AND b", {"a": True, "b": None}, None),
            ("a OR b", {"a": None, "b": True}, True),
            ("name LIKE 'a%'", {"name": "Ann"}, True),
            ("name LIKE 'a_n'", {"name": "ann"}, True),
            ("x IN (1, 2, 3)", {"x": 2}, True),
            ("x IN (1, NULL)", {"x": 2}, None),
            ("x NOT IN (1, 2)", {"x": 3}, True),
            ("x IS NULL", {"x": None}, True),
            ("x IS NOT NULL", {"x": None}, False),
            ("COALESCE(x, 9)", {"x": None}, 9),
            ("1 / 0", {}, None),
            ("-x", {"x": 5}, -5),
        ],
    )
    def test_matches_evaluator(self, source, env, expected):
        expr = parse(source)
        assert _EVALUATOR.evaluate(expr, env) == expected
        assert compile_expression(expr)(env) == expected

    def test_predicate_null_not_satisfied(self):
        expr = parse("age >= 50")
        assert compile_predicate(expr)({"age": None}) is False
        assert compile_predicate(expr)({"age": 64}) is True

    def test_equal_literals_compile_apart(self):
        # ``Literal(0) == Literal(False)`` under dataclass equality.
        zero, false = Literal(0), Literal(False)
        for _ in range(2):  # each call lowers its literal afresh
            value = compile_expression(zero)({})
            assert type(value) is int and value == 0
            assert compile_expression(false)({}) is False

    def test_custom_registry_not_memoized_into_default_cache(self):
        from repro.expr.functions import default_registry

        registry = default_registry()
        registry.register("DOUBLE", lambda x: None if x is None else 2 * x, 1, 1)
        expr = FunctionCall("DOUBLE", (Identifier(("x",)),))
        assert compile_expression(expr, registry)({"x": 4}) == 8


class TestIdentifierResolution:
    def test_dotted_resolves_by_full_name(self):
        expr = Identifier(("MedicalHistory", "Smoking"))
        env = {"MedicalHistory.Smoking": "Current"}
        assert compile_expression(expr)(env) == "Current"

    def test_dotted_resolves_by_leaf(self):
        expr = Identifier(("MedicalHistory", "Smoking"))
        assert compile_expression(expr)({"Smoking": "Never"}) == "Never"

    def test_short_name_suffix_matches_dotted_key(self):
        expr = Identifier(("Smoking",))
        env = {"MedicalHistory.Smoking": "Previous", "other": 1}
        assert compile_expression(expr)(env) == "Previous"
        # Second call goes through the memoized suffix resolution.
        assert compile_expression(expr)(env) == "Previous"

    def test_ambiguous_suffix_raises_both_paths(self):
        expr = Identifier(("Smoking",))
        env = {"A.Smoking": 1, "B.Smoking": 2}
        with pytest.raises(EvaluationError):
            _EVALUATOR.evaluate(expr, env)
        with pytest.raises(EvaluationError):
            compile_expression(expr)(env)

    def test_unknown_raises_both_paths(self):
        expr = Identifier(("missing",))
        with pytest.raises(UnknownIdentifierError):
            _EVALUATOR.evaluate(expr, {"a": 1})
        with pytest.raises(UnknownIdentifierError):
            compile_expression(expr)({"a": 1})

    def test_memoized_resolution_tracks_environment_key_set(self):
        # The same expression must re-resolve when the key-set changes.
        expr = Identifier(("Smoking",))
        assert compile_expression(expr)({"X.Smoking": "one"}) == "one"
        assert compile_expression(expr)({"Smoking": "direct"}) == "direct"
        assert compile_expression(expr)({"Y.Smoking": "two"}) == "two"
        with pytest.raises(EvaluationError):
            compile_expression(expr)({"X.Smoking": 1, "Y.Smoking": 2})


# -- property equivalence ------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "packs", "smoking"])
_numbers = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
)


def _literals():
    return st.one_of(
        _numbers.map(Literal),
        st.sampled_from(["x", "y", "Current", "a%"]).map(Literal),
        st.booleans().map(Literal),
        st.just(Literal(None)),
    )


def _expressions():
    leaves = st.one_of(_literals(), _names.map(lambda n: Identifier((n,))))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(
                BinaryOp,
                st.sampled_from(
                    ["+", "-", "*", "/", "%", "=", "!=", "<", "<=", ">", ">=",
                     "AND", "OR", "LIKE"]
                ),
                children,
                children,
            ),
            st.builds(UnaryOp, st.sampled_from(["-", "NOT"]), children),
            st.builds(IsNull, children, st.booleans()),
            st.builds(
                InList,
                children,
                st.lists(_literals(), min_size=1, max_size=3).map(tuple),
                st.booleans(),
            ),
        ),
        max_leaves=14,
    )


_envs = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(
            st.integers(-10, 10),
            st.booleans(),
            st.sampled_from(["x", "y", "Current"]),
            st.just(None),
        )
        for name in ["a", "b", "c", "packs", "smoking", "extra.a"]
    },
)


class TestPropertyEquivalence:
    @given(_expressions(), _envs)
    @settings(max_examples=300)
    def test_compiled_agrees_with_interpreter(self, expr, env):
        interpreted, compiled = _both(expr, env)
        if interpreted[0] == "ok" and isinstance(interpreted[1], float):
            assert compiled[0] == "ok"
            if math.isnan(interpreted[1]):
                assert math.isnan(compiled[1])
            else:
                assert compiled[1] == interpreted[1]
        else:
            assert compiled == interpreted

    @given(_expressions(), _envs)
    @settings(max_examples=150)
    def test_predicate_agrees_with_satisfied(self, expr, env):
        try:
            expected = _EVALUATOR.satisfied(expr, env)
        except (EvaluationError, UnknownIdentifierError) as error:
            with pytest.raises(type(error)):
                compile_predicate(expr)(env)
            return
        assert compile_predicate(expr)(env) is expected
