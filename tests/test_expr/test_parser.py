"""Tests for the expression parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.expr import (
    BinaryOp,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    parse,
)


class TestLiterals:
    def test_integer(self):
        assert parse("42") == Literal(42)

    def test_float(self):
        assert parse("2.5") == Literal(2.5)

    def test_string(self):
        assert parse("'Current'") == Literal("Current")

    def test_true_false_null(self):
        assert parse("TRUE") == Literal(True)
        assert parse("FALSE") == Literal(False)
        assert parse("NULL") == Literal(None)

    def test_one_and_true_parse_apart(self):
        # ``Literal(1) == Literal(True)`` under dataclass equality.
        assert parse("x = 1").right.value is 1
        assert parse("x = TRUE").right.value is True


class TestIdentifiers:
    def test_simple(self):
        assert parse("smoking") == Identifier(("smoking",))

    def test_dotted_path(self):
        expr = parse("MedicalHistory.Smoking")
        assert expr == Identifier(("MedicalHistory", "Smoking"))
        assert expr.leaf == "Smoking"

    def test_name_property(self):
        assert Identifier.of("a.b.c").name == "a.b.c"


class TestPrecedence:
    def test_multiplication_binds_tighter(self):
        expr = parse("1 + 2 * 3")
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_parens_override(self):
        expr = parse("(1 + 2) * 3")
        assert expr.op == "*"

    def test_and_binds_tighter_than_or(self):
        expr = parse("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_comparison_below_logic(self):
        expr = parse("a < 1 AND b > 2")
        assert expr.op == "AND"
        assert expr.left.op == "<"

    def test_unary_minus(self):
        assert parse("-x") == UnaryOp("-", Identifier(("x",)))

    def test_not(self):
        expr = parse("NOT a = 1")
        assert isinstance(expr, UnaryOp) and expr.op == "NOT"

    def test_left_associative_subtraction(self):
        expr = parse("10 - 3 - 2")
        assert expr.op == "-"
        assert expr.left.op == "-"
        assert expr.right == Literal(2)


class TestSpecialForms:
    def test_in_list(self):
        expr = parse("x IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.items) == 3
        assert not expr.negated

    def test_not_in(self):
        expr = parse("x NOT IN ('a')")
        assert isinstance(expr, InList) and expr.negated

    def test_is_null(self):
        expr = parse("x IS NULL")
        assert isinstance(expr, IsNull) and not expr.negated

    def test_is_not_null(self):
        expr = parse("x IS NOT NULL")
        assert isinstance(expr, IsNull) and expr.negated

    def test_between_desugars(self):
        expr = parse("x BETWEEN 1 AND 5")
        assert expr.op == "AND"
        assert expr.left.op == ">="
        assert expr.right.op == "<="

    def test_not_between(self):
        expr = parse("x NOT BETWEEN 1 AND 5")
        assert isinstance(expr, UnaryOp) and expr.op == "NOT"

    def test_like(self):
        expr = parse("name LIKE '%hypoxia%'")
        assert isinstance(expr, BinaryOp) and expr.op == "LIKE"

    def test_not_like(self):
        expr = parse("name NOT LIKE 'x%'")
        assert isinstance(expr, UnaryOp)


class TestFunctionCalls:
    def test_no_args(self):
        assert parse("f()") == FunctionCall("F", ())

    def test_args(self):
        expr = parse("coalesce(a, 0)")
        assert expr == FunctionCall("COALESCE", (Identifier(("a",)), Literal(0)))

    def test_name_uppercased(self):
        assert parse("iif(a, 1, 2)").name == "IIF"

    def test_nested_calls(self):
        expr = parse("IIF(a = 1, ABS(b), 0)")
        assert isinstance(expr.args[1], FunctionCall)


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        ["", "1 +", "(1", "x IN 1", "a AND", "f(1,", "NOT", "1 2", "x IS 3"],
    )
    def test_malformed_raises(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_trailing_input_raises(self):
        with pytest.raises(ParseError):
            parse("1 + 2 extra")

    @pytest.mark.parametrize("source", [123, 1.5, None, b"x = 1", ["x"], {"x": 1}])
    def test_non_str_input_raises_parse_error(self, source):
        with pytest.raises(ParseError, match="must be a str"):
            parse(source)

    @pytest.mark.parametrize("source", ["1 +", "x IS 3", "'unterminated", "a $ b"])
    def test_errors_are_not_memoized(self, source):
        for _ in range(3):
            with pytest.raises((ParseError, LexError)):
                parse(source)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "PacksPerDay >= 2 AND PacksPerDay < 5",
            "TumorX * TumorY * TumorZ * 0.52",
            "smoking IN ('Current', 'Previous') OR frequency IS NULL",
            "NOT (a = 1 AND b = 2)",
            "COALESCE(a, b, 0) + 1",
            "-x / (y - 2)",
            "name LIKE 'Dr%'",
        ],
    )
    def test_to_source_reparses_equal(self, source):
        expr = parse(source)
        assert parse(expr.to_source()) == expr
