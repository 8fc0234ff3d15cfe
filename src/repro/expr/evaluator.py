"""Evaluation of expression ASTs against an environment.

Null semantics follow SQL's three-valued logic: comparisons and arithmetic
involving NULL yield NULL; AND/OR use Kleene logic; a NULL condition is
treated as *not satisfied* by callers that need a boolean (classifier rule
guards, study filters).  This matters for clinical data, where an
unanswered question must never silently satisfy a cohort condition.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.errors import EvaluationError, UnknownIdentifierError
from repro.expr.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.expr.functions import FunctionRegistry, default_registry

Environment = Mapping[str, object]

_DEFAULT_REGISTRY = default_registry()

def resolve_suffix_key(name: str, leaf: str, env: Environment) -> str:
    """The environment key a dotted identifier resolves to by suffix match.

    Callers try the full name and leaf segment directly first; this is the
    slow fallback that scans every key.  Raises
    :class:`UnknownIdentifierError` on no match and :class:`EvaluationError`
    on an ambiguous one, like inline resolution always has.
    """
    matches = [
        key for key in env if key.endswith("." + name) or key.endswith("." + leaf)
    ]
    if not matches:
        raise UnknownIdentifierError(name)
    if len(matches) > 1:
        raise EvaluationError(
            f"ambiguous identifier {name!r}: matches {sorted(matches)}"
        )
    return matches[0]


class Evaluator:
    """Evaluate expressions against name → value environments.

    The environment maps *dotted* identifier names to values; an identifier
    is resolved first by its full dotted name, then by its leaf segment
    (so ``Smoking`` finds ``MedicalHistory.Smoking`` when unambiguous).
    """

    def __init__(self, functions: FunctionRegistry | None = None):
        self._functions = functions or _DEFAULT_REGISTRY

    def evaluate(self, expr: Expression, env: Environment) -> object:
        """Compute the value of ``expr`` in ``env`` (may return None)."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Identifier):
            return self._resolve(expr, env)
        if isinstance(expr, UnaryOp):
            return self._unary(expr, env)
        if isinstance(expr, BinaryOp):
            return self._binary(expr, env)
        if isinstance(expr, FunctionCall):
            args = [self.evaluate(arg, env) for arg in expr.args]
            return self._functions.call(expr.name, args)
        if isinstance(expr, InList):
            return self._in_list(expr, env)
        if isinstance(expr, IsNull):
            value = self.evaluate(expr.operand, env)
            result = value is None
            return not result if expr.negated else result
        raise EvaluationError(f"cannot evaluate node type {type(expr).__name__}")

    def satisfied(self, expr: Expression, env: Environment) -> bool:
        """True iff ``expr`` evaluates to boolean TRUE (NULL counts as false)."""
        return self.evaluate(expr, env) is True

    # -- helpers ------------------------------------------------------------

    def _resolve(self, identifier: Identifier, env: Environment) -> object:
        name = identifier.name
        if name in env:
            return env[name]
        leaf = identifier.leaf
        if leaf in env:
            return env[leaf]
        # Fall back to a suffix match on dotted environment keys, so an
        # expression written against a short node name still resolves when
        # the environment is keyed by full g-tree paths.
        return env[resolve_suffix_key(name, leaf, env)]

    def _unary(self, expr: UnaryOp, env: Environment) -> object:
        value = self.evaluate(expr.operand, env)
        if expr.op == "-":
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise EvaluationError(f"cannot negate non-numeric value {value!r}")
            return -value
        if expr.op == "NOT":
            if value is None:
                return None
            return not _as_bool(value)
        raise EvaluationError(f"unknown unary operator {expr.op!r}")

    def _binary(self, expr: BinaryOp, env: Environment) -> object:
        op = expr.op
        if op == "AND":
            return _kleene_and(
                _maybe_bool(self.evaluate(expr.left, env)),
                lambda: _maybe_bool(self.evaluate(expr.right, env)),
            )
        if op == "OR":
            return _kleene_or(
                _maybe_bool(self.evaluate(expr.left, env)),
                lambda: _maybe_bool(self.evaluate(expr.right, env)),
            )
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        if left is None or right is None:
            return None
        if op in ("+", "-", "*", "/", "%"):
            return _arithmetic(op, left, right)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return _compare(op, left, right)
        if op == "LIKE":
            return _like(str(left), str(right))
        raise EvaluationError(f"unknown binary operator {op!r}")

    def _in_list(self, expr: InList, env: Environment) -> object:
        value = self.evaluate(expr.operand, env)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = self.evaluate(item, env)
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", value, candidate) is True:
                return not expr.negated
        if saw_null:
            return None
        return expr.negated


def _maybe_bool(value: object) -> bool | None:
    if value is None:
        return None
    return _as_bool(value)


def _as_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    raise EvaluationError(f"expected boolean, got {value!r}")


def _kleene_and(left: bool | None, right_thunk) -> bool | None:
    if left is False:
        return False
    right = right_thunk()
    if right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left: bool | None, right_thunk) -> bool | None:
    if left is True:
        return True
    right = right_thunk()
    if right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _arithmetic(op: str, left: object, right: object) -> object:
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        raise EvaluationError(
            f"arithmetic {op} requires numbers, got {left!r} and {right!r}"
        )
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
    except ZeroDivisionError:
        return None
    raise EvaluationError(f"unknown arithmetic operator {op!r}")


def _compare(op: str, left: object, right: object) -> bool | None:
    # Numbers compare numerically; booleans only against booleans; strings
    # against strings.  Cross-type comparison (other than int/float) is an
    # error rather than a silent False — misclassifying clinical data
    # quietly would be worse than failing loudly.
    if isinstance(left, bool) != isinstance(right, bool):
        if op == "=":
            return False
        if op == "!=":
            return True
        raise EvaluationError(f"cannot order {left!r} against {right!r}")
    numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    textual = isinstance(left, str) and isinstance(right, str)
    both_bool = isinstance(left, bool) and isinstance(right, bool)
    if not (numeric or textual or both_bool):
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        raise EvaluationError(f"cannot order {left!r} against {right!r}")
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    if op == ">=":
        return left >= right  # type: ignore[operator]
    raise EvaluationError(f"unknown comparison operator {op!r}")


def _like(value: str, pattern: str) -> bool:
    """SQL LIKE with ``%`` (any run) and ``_`` (single char), case-insensitive.

    ``re`` keeps compiled patterns in its own cache.
    """
    # re.escape leaves % and _ untouched (they are not regex-special), so
    # they can be swapped for their regex equivalents directly.
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, flags=re.IGNORECASE | re.DOTALL) is not None


def sql_equal(left: object, right: object) -> bool:
    """SQL ``=`` forced to a boolean: NULL never matches, no type coercion.

    Index probes use this as their post-filter so hash-equal keys that SQL
    distinguishes (``1`` vs ``TRUE``) cannot leak through a bucket.
    """
    if left is None or right is None:
        return False
    return _compare("=", left, right) is True


def evaluate(expr: Expression, env: Environment) -> object:
    """Module-level convenience wrapper using the default function registry."""
    return Evaluator().evaluate(expr, env)
