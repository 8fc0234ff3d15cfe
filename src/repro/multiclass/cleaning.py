"""Data cleaning in the classifier language (paper §6 future work).

"We want to extend the classifier language to allow data cleaning, since
analysts may also choose to discard data based on the needs of the
particular study they wish to run."

A :class:`CleaningRule` is a declarative ``DISCARD WHEN <condition>``
statement over the same g-tree nodes (pre-classification) or study columns
(post-classification) the rest of the language uses.  Discards are never
silent: each discarded record is quarantined with the rule that removed it
and the rule's documented reason, so the analyst can audit exactly what a
study excluded and why — the same provenance discipline as classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ClassifierError
from repro.expr.analysis import referenced_identifiers
from repro.expr.ast import Expression
from repro.expr.evaluator import Evaluator
from repro.expr.parser import parse

_EVALUATOR = Evaluator()

Row = dict[str, object]


@dataclass
class CleaningRule:
    """One ``DISCARD WHEN`` statement.

    ``scope`` states which vocabulary the condition speaks:

    * ``"record"`` — g-tree node values, applied per source before
      classification (e.g. discard test patients, impossible vitals);
    * ``"study"``  — classified output columns, applied after the union
      (e.g. discard records left unclassified by a required element).
    """

    name: str
    condition: Expression
    reason: str = ""
    scope: str = "record"
    #: Record-scoped rules speak one source's g-tree vocabulary; ``source``
    #: restricts the rule to that contributor (None = every source, for
    #: rules over nodes all contributors share).
    source: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse(self.condition)
        if self.scope not in ("record", "study"):
            raise ClassifierError(
                f"cleaning rule {self.name!r}: scope must be 'record' or 'study'"
            )
        if self.scope == "study" and self.source is not None:
            raise ClassifierError(
                f"cleaning rule {self.name!r}: study-scoped rules run after "
                "the union and cannot bind to one source"
            )

    @classmethod
    def of(
        cls,
        name: str,
        condition: str | Expression,
        reason: str = "",
        scope: str = "record",
        source: str | None = None,
    ) -> "CleaningRule":
        return cls(
            name,
            condition if isinstance(condition, Expression) else parse(condition),
            reason,
            scope,
            source,
        )

    def discards(self, row: Row) -> bool:
        """True when the row must be removed (NULL condition keeps it)."""
        return _EVALUATOR.satisfied(self.condition, row)

    def input_nodes(self) -> set[str]:
        """Referenced names (for validation and version propagation)."""
        return {
            name.split(".")[-1]
            for name in referenced_identifiers(self.condition)
        }

    def to_source(self) -> str:
        reason = f"  -- {self.reason}" if self.reason else ""
        return f"DISCARD {self.name} WHEN {self.condition.to_source()}{reason}"


@dataclass
class QuarantinedRow:
    """One discarded record with its provenance."""

    rule: str
    reason: str
    source: str
    row: Row


@dataclass
class Quarantine:
    """Everything a study run discarded, auditable per rule."""

    rows: list[QuarantinedRow] = field(default_factory=list)

    def add(self, rule: CleaningRule, source: str, row: Row) -> None:
        """Quarantine ``row`` itself: the caller hands over a dict of its
        own (a row map's :meth:`~repro.multiclass.study.EntityRowMap.sift`
        builds one per discarded record; :func:`apply_rules` copies the
        shared rows it discards)."""
        self.rows.append(
            QuarantinedRow(rule=rule.name, reason=rule.reason, source=source, row=row)
        )

    def counts(self) -> dict[str, int]:
        """Discard count per rule name."""
        out: dict[str, int] = {}
        for quarantined in self.rows:
            out[quarantined.rule] = out.get(quarantined.rule, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.rows)


def apply_rules(
    rules: list[CleaningRule],
    rows: list[Row],
    source: str,
    scope: str,
    quarantine: Quarantine,
) -> list[Row]:
    """Filter ``rows`` through every rule of ``scope``; quarantine discards.

    The rows may be shared (a read's kept rows), so a discarded row is
    quarantined as a copy.
    """
    active = [
        rule
        for rule in rules
        if rule.scope == scope and rule.source in (None, source)
    ]
    if not active:
        return rows
    kept: list[Row] = []
    for row in rows:
        discarded = False
        for rule in active:
            if rule.discards(row):
                quarantine.add(rule, source, dict(row))
                discarded = True
                break
        if not discarded:
            kept.append(row)
    return kept


def parse_cleaning_rule(text: str) -> CleaningRule:
    """Parse the mini-language form::

        DISCARD <name> WHEN <condition> [-- reason]
        DISCARD STUDY <name> WHEN <condition> [-- reason]
    """
    stripped = text.strip()
    if not stripped.upper().startswith("DISCARD "):
        raise ClassifierError(f"expected DISCARD, got {stripped[:20]!r}")
    rest = stripped[len("DISCARD ") :].strip()
    scope = "record"
    if rest.upper().startswith("STUDY "):
        scope = "study"
        rest = rest[len("STUDY ") :].strip()
    name, _, remainder = rest.partition(" ")
    keyword, _, condition_text = remainder.strip().partition(" ")
    if keyword.upper() != "WHEN":
        raise ClassifierError("cleaning rule needs WHEN after the name")
    reason = ""
    if "--" in condition_text:
        condition_text, _, reason = condition_text.partition("--")
    return CleaningRule(
        name=name,
        condition=parse(condition_text.strip()),
        reason=reason.strip(),
        scope=scope,
    )
