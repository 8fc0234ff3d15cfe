"""Code books: compiled ≡ the tree-walking evaluator.

An Encoding pattern decodes stored codes with a chain
``IIF(x = 'Y', TRUE, IIF(x = 'N', FALSE, NULL))``; the compiler the
streaming executor uses lowers such a chain to one dict probe for the
input types the probe decides exactly, and runs the generic chain for
every other input.  These tests
draw random code books (text codes, integer codes, repeated codes,
bool/NULL values) and feed them inputs of every awkward type: ``True``
against code ``1``, ``1.0`` against ``1``, NaN, NULL, a date and an
unhashable list.  Results must agree in value *and* type.
"""

from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.expr.ast import BinaryOp, FunctionCall, Identifier, Literal
from repro.expr.compile import code_book, compile_expression
from repro.expr.evaluator import Evaluator
from repro.expr.functions import default_registry

_EVALUATOR = Evaluator()
_X = Identifier.of("x")

_str_codes = st.sampled_from(["Y", "N", "U", "", "y", "1", " Y"])
_int_codes = st.integers(-2, 3)
_decoded = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-1, 2),
    st.sampled_from(["yes", "no", ""]),
)

#: Inputs the probe must decide and inputs it must hand to the chain.
_AWKWARD = [
    True,
    False,
    1,
    1.0,
    0,
    -0.0,
    2.5,
    float("nan"),
    None,
    date(2020, 1, 1),
    [1],
    "Y",
    "N",
    "n",
    "1",
    "",
]


def _chain(pairs, default, identifier=_X):
    expression = Literal(default)
    for code, value in reversed(pairs):
        test = BinaryOp("=", identifier, Literal(code))
        expression = FunctionCall("IIF", (test, Literal(value), expression))
    return expression


@st.composite
def _code_books(draw):
    codes = _str_codes if draw(st.booleans()) else _int_codes
    pairs = draw(st.lists(st.tuples(codes, _decoded), min_size=1, max_size=6))
    return _chain(pairs, draw(_decoded)), [code for code, _ in pairs]


def _typed(value):
    return (type(value), value)


def _row_outcome(fn):
    try:
        return ("ok", _typed(fn()))
    except ReproError as exc:
        return ("err", type(exc))


def _assert_agree(expression, inputs):
    """The compiled expression agrees with the evaluator (the interpreter's
    semantics) on every input, in value and type, or raises alike."""
    compiled = compile_expression(expression)
    reference = [
        _row_outcome(lambda: _EVALUATOR.evaluate(expression, {"x": value}))
        for value in inputs
    ]
    rows = [_row_outcome(lambda: compiled({"x": value})) for value in inputs]
    assert rows == reference


class TestRandomCodeBooks:
    @given(_code_books(), st.lists(st.sampled_from(_AWKWARD), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_compiled_and_evaluator_agree(self, drawn, inputs):
        expression, codes = drawn
        assert code_book(expression, default_registry()) is not None
        _assert_agree(expression, inputs + codes)

    @given(_code_books())
    @settings(max_examples=60, deadline=None)
    def test_decidable_inputs_agree(self, drawn):
        # Inputs of the probe's own types only: the probe never needs the
        # generic chain.
        expression, codes = drawn
        _assert_agree(expression, codes + [None] + codes[::-1])

    @given(st.lists(st.tuples(_int_codes, _decoded), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_repeated_codes_keep_the_first_arm(self, pairs):
        expression = _chain(pairs + pairs[::-1], "default")
        book = code_book(expression, default_registry())
        first: dict = {}
        for code, value in pairs:
            first.setdefault(code, value)
        assert book.table == first
        _assert_agree(expression, [code for code, _ in pairs])


class TestPinnedCases:
    def test_true_and_float_against_an_integer_code(self):
        expression = _chain([(1, "one")], "other")
        compiled = compile_expression(expression)
        # ``TRUE = 1`` is False under the evaluator; ``1.0 = 1`` is True.
        assert compiled({"x": True}) == "other"
        assert compiled({"x": 1.0}) == "one"
        _assert_agree(expression, [True, 1.0, 1, float("nan"), None])

    def test_null_input_yields_the_default(self):
        expression = _chain([("Y", True), ("N", False)], "unknown")
        assert compile_expression(expression)({"x": None}) == "unknown"
        _assert_agree(expression, [None, "Y", "N"])

    def test_missing_identifier_raises_like_the_evaluator(self):
        expression = _chain([("Y", True)], None)
        with pytest.raises(ReproError) as expected:
            _EVALUATOR.evaluate(expression, {"y": "Y"})
        with pytest.raises(expected.type):
            compile_expression(expression)({"y": "Y"})

    def test_an_overridden_iif_is_not_lowered(self):
        registry = default_registry()
        registry.register("IIF", lambda test, then, other: other if test is True else then, 3, 3)
        expression = _chain([("Y", "yes")], "no")
        assert code_book(expression, registry) is None
        compiled = compile_expression(expression, registry)
        for value in ("Y", "N", None):
            env = {"x": value}
            assert compiled(env) == Evaluator(registry).evaluate(expression, env)
        assert compiled({"x": "Y"}) == "no"

    @pytest.mark.parametrize(
        "expression",
        [
            # A non-literal arm.
            FunctionCall(
                "IIF",
                (BinaryOp("=", _X, Literal("Y")), Identifier.of("y"), Literal(None)),
            ),
            # A non-literal default.
            FunctionCall(
                "IIF",
                (BinaryOp("=", _X, Literal("Y")), Literal(True), Identifier.of("y")),
            ),
            # Two identifiers.
            FunctionCall(
                "IIF",
                (
                    BinaryOp("=", _X, Literal("Y")),
                    Literal(1),
                    _chain([("Y", 2)], None, Identifier.of("y")),
                ),
            ),
            # Codes of mixed type, a bool code, a float code, a NULL code.
            _chain([("Y", 1), (1, 2)], None),
            _chain([(True, 1)], None),
            _chain([(1, "one"), (True, "true")], None),
            _chain([(1.5, 1)], None),
            _chain([(None, 1)], None),
            # A test that is not ``identifier = literal``.
            FunctionCall(
                "IIF", (BinaryOp("!=", _X, Literal("Y")), Literal(1), Literal(None))
            ),
            FunctionCall(
                "IIF", (BinaryOp("=", Literal("Y"), _X), Literal(1), Literal(None))
            ),
        ],
    )
    def test_other_chains_stay_generic(self, expression):
        assert code_book(expression, default_registry()) is None
        compiled = compile_expression(expression)
        for env in ({"x": "Y", "y": "Y"}, {"x": None, "y": "N"}):
            assert compiled(env) == _EVALUATOR.evaluate(expression, env)

    def test_generic_chain_is_built_on_first_need(self, monkeypatch):
        import repro.expr.compile as compile_module

        built = []
        lower = compile_module._lower_function_call

        def counting(expr, registry):
            built.append(expr)
            return lower(expr, registry)

        monkeypatch.setattr(compile_module, "_lower_function_call", counting)
        expression = _chain([("Y", True), ("N", False)], None)
        decode = compile_module._lower(expression, compile_module._DEFAULT_REGISTRY)
        assert [decode({"x": value}) for value in ("Y", "N", "?", None)] == [
            True,
            False,
            None,
            None,
        ]
        assert built == []
        assert decode({"x": date(2020, 1, 1)}) is None
        # One generic level per IIF: the else arm is itself a code book,
        # whose own chain is built when the date reaches it.
        assert built == [expression, expression.args[2]]
