"""AST node types for the shared expression language.

All nodes are immutable dataclasses.  ``to_source()`` renders a node back to
concrete syntax that re-parses to an equal AST (round-trip property tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Expression:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        """Direct sub-expressions, left to right."""
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def to_source(self) -> str:
        """Render back to concrete syntax."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_source()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean, or NULL (``value is None``)."""

    value: object

    def to_source(self) -> str:
        if self.value is None:
            return "NULL"
        if self.value is True:
            return "TRUE"
        if self.value is False:
            return "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class Identifier(Expression):
    """A (possibly dotted) reference to a g-tree node or column.

    ``path`` holds the dotted segments, e.g. ``("MedicalHistory", "Smoking")``
    for the source text ``MedicalHistory.Smoking``.
    """

    path: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("Identifier requires at least one path segment")

    @property
    def name(self) -> str:
        """The dotted name as written in source."""
        return ".".join(self.path)

    @property
    def leaf(self) -> str:
        """The final path segment."""
        return self.path[-1]

    def to_source(self) -> str:
        return self.name

    @classmethod
    def of(cls, dotted: str) -> "Identifier":
        """Build an identifier from a dotted string."""
        return cls(tuple(dotted.split(".")))


# A binary ``op`` is arithmetic (``+ - * / %``), a comparison
# (``= != < <= > >= LIKE``) or logical; the parser guarantees it.
LOGICAL_OPS = ("AND", "OR")


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation: arithmetic, comparison, or logical."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    @property
    def is_logical(self) -> bool:
        return self.op in LOGICAL_OPS

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.op} {self.right.to_source()})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary negation: arithmetic ``-`` or logical ``NOT``."""

    op: str  # "-" or "NOT"
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def to_source(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_source()})"
        return f"(-{self.operand.to_source()})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A call to a registered function, e.g. ``COALESCE(a, 0)``."""

    name: str
    args: tuple[Expression, ...] = field(default_factory=tuple)

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def to_source(self) -> str:
        rendered = ", ".join(arg.to_source() for arg in self.args)
        return f"{self.name}({rendered})"


@dataclass(frozen=True)
class InList(Expression):
    """Membership test: ``x IN ('a', 'b')`` or ``x NOT IN (1, 2)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)

    def to_source(self) -> str:
        rendered = ", ".join(item.to_source() for item in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_source()} {keyword} ({rendered}))"


@dataclass(frozen=True)
class IsNull(Expression):
    """Null test: ``x IS NULL`` or ``x IS NOT NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def to_source(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_source()} {keyword})"


def conjunction(parts: Sequence[Expression]) -> Expression:
    """Combine ``parts`` with AND; returns TRUE literal when empty."""
    if not parts:
        return Literal(True)
    result = parts[0]
    for part in parts[1:]:
        result = BinaryOp("AND", result, part)
    return result


def disjunction(parts: Sequence[Expression]) -> Expression:
    """Combine ``parts`` with OR; returns FALSE literal when empty."""
    if not parts:
        return Literal(False)
    result = parts[0]
    for part in parts[1:]:
        result = BinaryOp("OR", result, part)
    return result
