"""Tests for column types and coercion."""

from datetime import date, datetime

import pytest

from repro.errors import TypeMismatchError
from repro.relational import DataType
from repro.relational.types import Converter


class TestInteger:
    def test_int_passthrough(self):
        assert DataType.INTEGER.coerce(5) == 5

    def test_bool_becomes_int(self):
        assert DataType.INTEGER.coerce(True) == 1

    def test_whole_float_accepted(self):
        assert DataType.INTEGER.coerce(5.0) == 5

    def test_fractional_float_rejected(self):
        with pytest.raises(TypeMismatchError):
            DataType.INTEGER.coerce(5.5)

    def test_numeric_string(self):
        assert DataType.INTEGER.coerce(" 42 ") == 42

    def test_bad_string_rejected(self):
        with pytest.raises(TypeMismatchError):
            DataType.INTEGER.coerce("abc")

    def test_none_passes_through(self):
        assert DataType.INTEGER.coerce(None) is None


class TestFloat:
    def test_int_widens(self):
        assert DataType.FLOAT.coerce(2) == 2.0
        assert isinstance(DataType.FLOAT.coerce(2), float)

    def test_string(self):
        assert DataType.FLOAT.coerce("2.5") == 2.5

    def test_bad_value(self):
        with pytest.raises(TypeMismatchError):
            DataType.FLOAT.coerce([1])


class TestText:
    def test_string_passthrough(self):
        assert DataType.TEXT.coerce("abc") == "abc"

    def test_number_renders(self):
        assert DataType.TEXT.coerce(3) == "3"

    def test_bool_renders_lowercase(self):
        assert DataType.TEXT.coerce(True) == "true"

    def test_date_renders_iso(self):
        assert DataType.TEXT.coerce(date(2006, 3, 26)) == "2006-03-26"


class TestBoolean:
    @pytest.mark.parametrize("text", ["true", "Yes", "Y", "1", "t"])
    def test_truthy_strings(self, text):
        assert DataType.BOOLEAN.coerce(text) is True

    @pytest.mark.parametrize("text", ["false", "No", "n", "0", "F"])
    def test_falsy_strings(self, text):
        assert DataType.BOOLEAN.coerce(text) is False

    def test_int_zero_one(self):
        assert DataType.BOOLEAN.coerce(1) is True
        assert DataType.BOOLEAN.coerce(0) is False

    def test_other_int_rejected(self):
        with pytest.raises(TypeMismatchError):
            DataType.BOOLEAN.coerce(2)

    def test_arbitrary_string_rejected(self):
        with pytest.raises(TypeMismatchError):
            DataType.BOOLEAN.coerce("maybe")


class TestDate:
    def test_iso_string(self):
        assert DataType.DATE.coerce("2006-03-26") == date(2006, 3, 26)

    def test_date_passthrough(self):
        d = date(2006, 1, 1)
        assert DataType.DATE.coerce(d) is d

    def test_datetime_truncates(self):
        assert DataType.DATE.coerce(datetime(2006, 1, 1, 12, 30)) == date(2006, 1, 1)

    def test_bad_string(self):
        with pytest.raises(TypeMismatchError):
            DataType.DATE.coerce("yesterday")


class TestAccepts:
    def test_accepts_true(self):
        assert DataType.INTEGER.accepts("5")

    def test_accepts_false(self):
        assert not DataType.INTEGER.accepts("abc")


class TestErrorMessagesPerMember:
    """Messages and ``accepts`` are pinned byte for byte: the dispatch
    table behind ``coerce`` is an implementation detail."""

    @pytest.mark.parametrize(
        "dtype,value,message",
        [
            (
                DataType.INTEGER,
                "abc",
                "cannot coerce 'abc' to integer: invalid literal for int() with base 10: 'abc'",
            ),
            (
                DataType.FLOAT,
                "x",
                "cannot coerce 'x' to float: could not convert string to float: 'x'",
            ),
            (DataType.TEXT, [1], "cannot coerce [1] to text: unsupported source type list"),
            (
                DataType.BOOLEAN,
                "maybe",
                "cannot coerce 'maybe' to boolean: not a boolean literal: 'maybe'",
            ),
            (
                DataType.DATE,
                "yesterday",
                "cannot coerce 'yesterday' to date: Invalid isoformat string: 'yesterday'",
            ),
        ],
        ids=lambda case: case.name if isinstance(case, DataType) else None,
    )
    def test_message_and_accepts(self, dtype, value, message):
        with pytest.raises(TypeMismatchError) as raised:
            dtype.coerce(value)
        assert str(raised.value) == message
        assert not dtype.accepts(value)
        assert dtype.accepts(None)

    def test_every_member_is_covered(self):
        assert {member.value for member in DataType} == {
            "integer",
            "float",
            "text",
            "boolean",
            "date",
        }


class TestConverter:
    """The per-column converter behind ``Coerce`` and bulk loads."""

    @pytest.mark.parametrize("dtype", list(DataType), ids=lambda d: d.name)
    def test_matches_coerce_value_and_type(self, dtype):
        values = [None, 1, True, 1.0, "1", " true ", "2020-01-02", date(2020, 1, 2), "x", [1]]
        expected = []
        for value in values:
            try:
                expected.append(("ok", type(dtype.coerce(value)), dtype.coerce(value)))
            except TypeMismatchError as exc:
                expected.append(("err", str(exc)))
        converter = Converter(dtype)
        for value, want in zip(values, expected):
            try:
                result = converter(value)
                assert ("ok", type(result), result) == want
            except TypeMismatchError as exc:
                assert ("err", str(exc)) == want
        # The column path, over the values that convert, twice over.
        good = [value for value, want in zip(values, expected) if want[0] == "ok"] * 2
        column = converter.column(good)
        assert [("ok", type(v), v) for v in column] == [
            want for want in expected if want[0] == "ok"
        ] * 2

    def test_column_is_always_a_fresh_list(self):
        values = [1, 2, None]
        result = Converter(DataType.INTEGER).column(values)
        assert result == values
        assert result is not values

    def test_errors_are_not_memoized(self):
        converter = Converter(DataType.INTEGER)
        message = (
            "cannot coerce 'x' to integer: invalid literal for int() with base 10: 'x'"
        )
        for convert in (converter.column, lambda values: list(map(converter, values))):
            for _ in range(2):
                with pytest.raises(TypeMismatchError) as raised:
                    convert(["1", "x"])
                assert str(raised.value) == message
