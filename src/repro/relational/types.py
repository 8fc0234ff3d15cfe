"""Column data types and value coercion."""

from __future__ import annotations

import enum
from datetime import date, datetime
from math import isfinite
from typing import Callable, Sequence

from repro.errors import TypeMismatchError


class DataType(enum.Enum):
    """The type system of the in-memory engine.

    Deliberately small: the contributor databases the paper describes are
    form-entry backends, and five scalar types cover every control's
    storage (dates are kept as ISO-formatted ``datetime.date``).
    """

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    DATE = "date"

    def coerce(self, value: object) -> object:
        """Coerce ``value`` to this type, or raise :class:`TypeMismatchError`.

        ``None`` passes through unchanged (nullability is the column's
        concern, not the type's).
        """
        if value is None:
            return None
        try:
            # Keyed on the member's value string: hashing the member itself
            # goes through the Python-level ``Enum.__hash__`` on every call.
            return _COERCERS[self._value_](value)
        except (ValueError, TypeError) as exc:
            raise TypeMismatchError(
                f"cannot coerce {value!r} to {self.value}: {exc}"
            ) from exc

    @property
    def native(self) -> type:
        """The one input type :meth:`coerce` returns unchanged (when finite)."""
        return _NATIVE_TYPES[self._value_]

    def accepts(self, value: object) -> bool:
        """True when ``value`` coerces cleanly to this type."""
        try:
            self.coerce(value)
            return True
        except TypeMismatchError:
            return False


def _coerce_integer(value: object) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError(f"{value} has a fractional part")
    if isinstance(value, str):
        return int(value.strip())
    raise TypeError(f"unsupported source type {type(value).__name__}")


def _coerce_float(value: object) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        result = float(value.strip())
    else:
        raise TypeError(f"unsupported source type {type(value).__name__}")
    # NaN and infinities have no JSON form: the log would bring them back
    # as NULL, so a stored value could not survive recovery.
    if not isfinite(result):
        raise ValueError("not a finite number")
    return result


def _coerce_text(value: object) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"unsupported source type {type(value).__name__}")


_TRUE_TEXT = frozenset({"true", "t", "yes", "y", "1"})
_FALSE_TEXT = frozenset({"false", "f", "no", "n", "0"})


def _coerce_boolean(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _TRUE_TEXT:
            return True
        if text in _FALSE_TEXT:
            return False
        raise ValueError(f"not a boolean literal: {value!r}")
    raise TypeError(f"unsupported source type {type(value).__name__}")


def _coerce_date(value: object) -> date:
    if isinstance(value, datetime):
        return value.date()
    if isinstance(value, date):
        return value
    if isinstance(value, str):
        return date.fromisoformat(value.strip())
    raise TypeError(f"unsupported source type {type(value).__name__}")


_COERCERS: dict[str, Callable[[object], object]] = {
    DataType.INTEGER.value: _coerce_integer,
    DataType.FLOAT.value: _coerce_float,
    DataType.TEXT.value: _coerce_text,
    DataType.BOOLEAN.value: _coerce_boolean,
    DataType.DATE.value: _coerce_date,
}

#: Per member, the one input type ``coerce`` returns unchanged (floats
#: only when finite).
_NATIVE_TYPES: dict[str, type] = {
    DataType.INTEGER.value: int,
    DataType.FLOAT.value: float,
    DataType.TEXT.value: str,
    DataType.BOOLEAN.value: bool,
    DataType.DATE.value: date,
}

#: Distinct inputs a per-run memo keeps before it drops the memo and
#: computes directly: one :class:`Converter`'s text inputs, or one compiled
#: classifier's input combinations (``Classifier.compile``).
MEMO_LIMIT = 1024

_MISS = object()
_NONE_TYPE = type(None)
_TEXT_OR_NULL = frozenset((str, _NONE_TYPE))


def unchanged_by_coerce(
    values: Sequence[object], native: type, kinds: set[type]
) -> bool:
    """True when ``coerce`` returns each of ``values`` as it is.

    That is, every value is NULL or of the type's ``native`` class, and a
    float is finite.  ``kinds`` is ``set(map(type, values))``, which the
    caller has at hand.
    """
    if not kinds <= {native, _NONE_TYPE}:
        return False
    if native is not float:
        return True
    # filter(None, ...) drops the NULLs (and zeros, which are finite).
    return all(map(isfinite, filter(None, values)))  # type: ignore[arg-type]


class Converter:
    """``dtype.coerce`` for one execution of one column, with a text memo.

    Values of the type's native class (``int`` for INTEGER, ``date`` for
    DATE, ... compared by exact type; finite floats for FLOAT) come back
    unchanged, as ``coerce`` returns them.  Text inputs to a non-TEXT type
    are parsed once per distinct string: stored EAV answers repeat
    ("true", "2", ...), so a repeat costs one dict probe (99% of the rows
    of CORI's boolean answers are repeats; EXPERIMENTS.md).  The memo is
    keyed by the exact ``str`` only, so ``1``, ``True`` and ``"1"`` never
    share an entry.  A column of near-unique strings (dates) would pay for
    the memo on every row, so once it meets more than :data:`MEMO_LIMIT`
    distinct strings it drops the memo and parses directly for the rest of
    the execution.
    Errors propagate from ``coerce`` with its exact message and are never
    cached.
    """

    __slots__ = ("coerce", "native", "memo")

    def __init__(self, dtype: DataType):
        self.coerce = dtype.coerce
        self.native = dtype.native
        self.memo: dict[object, object] | None = (
            None if self.native is str else {}
        )

    def __call__(self, value: object) -> object:
        kind = type(value)
        if kind is self.native:
            if kind is not float or isfinite(value):  # type: ignore[arg-type]
                return value
        elif value is None:
            return value
        memo = self.memo
        if kind is not str or memo is None:
            return self.coerce(value)
        result = memo.get(value, _MISS)
        if result is _MISS:
            result = self.coerce(value)
            if len(memo) < MEMO_LIMIT:
                memo[value] = result
            else:
                self.memo = None
        return result

    def column(self, values: Sequence[object]) -> list[object]:
        """``[self(value) for value in values]``, always a fresh list.

        An all-text column is converted per *distinct* string, in order of
        first occurrence (so a bad value raises exactly where the row loop
        would), then mapped through the memo at C speed.
        """
        kinds = set(map(type, values))
        if unchanged_by_coerce(values, self.native, kinds):
            return list(values)
        memo = self.memo
        if memo is not None and kinds <= _TEXT_OR_NULL:
            fresh = [
                value
                for value in dict.fromkeys(values)
                if value is not None and value not in memo
            ]
            if len(memo) + len(fresh) <= MEMO_LIMIT:
                coerce = self.coerce
                for value in fresh:
                    memo[value] = coerce(value)
                return list(map(memo.get, values))
            self.memo = None
        return [self(value) for value in values]
