"""Domains: the alternative representations of a study-schema attribute.

Paper Table 2 — the smoking attribute has three domains (packs per day;
None/Current/Previous; None/Light/Moderate/Heavy) and "there is no way to
translate any one representation into another without losing information".
Domains are "a concept from statistics", so analysts find them familiar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import DomainError


class DomainKind(enum.Enum):
    CATEGORICAL = "categorical"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    TEXT = "text"


@dataclass(frozen=True)
class Domain:
    """One representation for an attribute's values."""

    name: str
    kind: DomainKind
    description: str = ""
    #: Ordered categories (categorical domains only).
    categories: tuple[str, ...] = ()
    minimum: float | None = None
    maximum: float | None = None

    def __post_init__(self) -> None:
        if self.kind is DomainKind.CATEGORICAL and not self.categories:
            raise DomainError(f"categorical domain {self.name!r} needs categories")
        if self.kind is not DomainKind.CATEGORICAL and self.categories:
            raise DomainError(f"{self.kind.value} domain {self.name!r} cannot have categories")
        if len(set(self.categories)) != len(self.categories):
            raise DomainError(f"domain {self.name!r} has duplicate categories")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def categorical(cls, name: str, categories: list[str], description: str = "") -> "Domain":
        return cls(name, DomainKind.CATEGORICAL, description, tuple(categories))

    @classmethod
    def integer(
        cls,
        name: str,
        description: str = "",
        minimum: float | None = None,
        maximum: float | None = None,
    ) -> "Domain":
        return cls(name, DomainKind.INTEGER, description, (), minimum, maximum)

    @classmethod
    def real(
        cls,
        name: str,
        description: str = "",
        minimum: float | None = None,
        maximum: float | None = None,
    ) -> "Domain":
        return cls(name, DomainKind.FLOAT, description, (), minimum, maximum)

    @classmethod
    def boolean(cls, name: str, description: str = "") -> "Domain":
        return cls(name, DomainKind.BOOLEAN, description)

    @classmethod
    def text(cls, name: str, description: str = "") -> "Domain":
        return cls(name, DomainKind.TEXT, description)

    # -- membership ----------------------------------------------------------

    def contains(self, value: object) -> bool:
        """True when ``value`` is a member of this domain (NULL never is)."""
        if value is None:
            return False
        if self.kind is DomainKind.CATEGORICAL:
            return isinstance(value, str) and value in self.categories
        if self.kind is DomainKind.BOOLEAN:
            return isinstance(value, bool)
        if self.kind is DomainKind.TEXT:
            return isinstance(value, str)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        if self.kind is DomainKind.INTEGER and not float(value).is_integer():
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True

    def check(self, value: object) -> object:
        """Return ``value`` if in-domain, else raise :class:`DomainError`."""
        if value is None:
            return None  # unclassified stays NULL
        if not self.contains(value):
            raise DomainError(f"value {value!r} is outside domain {self.name!r}")
        return value

    @property
    def cardinality(self) -> float:
        """Number of distinct values (``inf`` for unbounded domains)."""
        if self.kind is DomainKind.CATEGORICAL:
            return float(len(self.categories))
        if self.kind is DomainKind.BOOLEAN:
            return 2.0
        if (
            self.kind is DomainKind.INTEGER
            and self.minimum is not None
            and self.maximum is not None
        ):
            return float(int(self.maximum) - int(self.minimum) + 1)
        return float("inf")

    def __str__(self) -> str:
        if self.kind is DomainKind.CATEGORICAL:
            return f"{self.name} {{{', '.join(self.categories)}}}"
        bounds = ""
        if self.minimum is not None or self.maximum is not None:
            bounds = f" [{self.minimum if self.minimum is not None else ''}..{self.maximum if self.maximum is not None else ''}]"
        return f"{self.name} ({self.kind.value}{bounds})"
