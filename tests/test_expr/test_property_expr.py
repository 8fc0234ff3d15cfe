"""Property-based tests for the expression language (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.expr import evaluate, parse
from repro.expr.analysis import to_dnf
from repro.expr.ast import (
    BinaryOp,
    Expression,
    Identifier,
    Literal,
    UnaryOp,
    conjunction,
    disjunction,
)

# -- strategies ----------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "packs", "smoking"])
_numbers = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
)


def _literals():
    return st.one_of(
        _numbers.map(Literal),
        st.sampled_from(["x", "y", "Current"]).map(Literal),
        st.booleans().map(Literal),
        st.just(Literal(None)),
    )


def _arith(children):
    return st.builds(
        BinaryOp, st.sampled_from(["+", "-", "*"]), children, children
    )


def _comparisons(operands):
    return st.builds(
        BinaryOp, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), operands, operands
    )


def _boolean_exprs():
    numeric = st.one_of(_numbers.map(Literal), _names.map(lambda n: Identifier((n,))))
    atom = _comparisons(numeric)
    return st.recursive(
        atom,
        lambda children: st.one_of(
            st.builds(BinaryOp, st.sampled_from(["AND", "OR"]), children, children),
            st.builds(UnaryOp, st.just("NOT"), children),
        ),
        max_leaves=12,
    )


def _expressions():
    numeric = st.one_of(_literals(), _names.map(lambda n: Identifier((n,))))
    return st.recursive(
        numeric,
        lambda children: st.one_of(_arith(children), _comparisons(children)),
        max_leaves=10,
    )


_envs = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(st.integers(-10, 10), st.just(None))
        for name in ["a", "b", "c", "packs", "smoking"]
    },
)


# -- properties ------------------------------------------------------------------


class TestRoundTrip:
    @given(_expressions())
    @settings(max_examples=200)
    def test_to_source_reparses_equal(self, expr: Expression):
        assert parse(expr.to_source()) == expr

    @given(_boolean_exprs())
    @settings(max_examples=200)
    def test_boolean_to_source_reparses_equal(self, expr: Expression):
        assert parse(expr.to_source()) == expr


def _safe_eval(expr: Expression, env) -> object:
    full_env = {name: env.get(name) for name in ["a", "b", "c", "packs", "smoking"]}
    return evaluate(expr, full_env)


class TestDNFEquivalence:
    @given(_boolean_exprs(), _envs)
    @settings(max_examples=300)
    def test_dnf_preserves_semantics(self, expr: Expression, env):
        original = _safe_eval(expr, env)
        clauses = to_dnf(expr)
        rebuilt = _safe_eval(disjunction([conjunction(c) for c in clauses]), env)
        assert original == rebuilt


class TestEvaluationTotality:
    @given(_boolean_exprs(), _envs)
    @settings(max_examples=300)
    def test_boolean_exprs_yield_three_valued_logic(self, expr, env):
        result = _safe_eval(expr, env)
        assert result in (True, False, None)
