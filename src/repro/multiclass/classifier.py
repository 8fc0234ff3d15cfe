"""Classifiers: declarative ``A <- B`` rule lists (paper Figure 5).

"An analyst creates a classifier to relate nodes in a g-tree with domain
entries in a study schema.  Each classifier is a list of declarative
statements of the form A <- B, where A is an arithmetic calculation and B
is a Boolean condition.  Both clauses use nodes in a g-tree as arguments."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TypeVar

from repro.errors import ClassifierError
from repro.expr.analysis import is_union_of_conjunctions, referenced_identifiers
from repro.expr.ast import Expression, Literal
from repro.expr.compile import compile_expression, compile_predicate
from repro.expr.evaluator import Evaluator
from repro.expr.parser import parse
from repro.guava.gtree import GTree
from repro.multiclass.domain import Domain
from repro.util.annotations import Annotated

Environment = dict[str, object]
CompiledClassifier = Callable[[Environment], object]

_EVALUATOR = Evaluator()

F = TypeVar("F", bound="Freezable")


class Freezable:
    """Mixin: :meth:`frozen` gives a read-only copy, which refuses assignment.

    A bound classifier is shared by every study its binding serves, and
    the row maps compiled from it are kept, so it must not change: studies
    bind frozen copies, and the caller keeps its own object, free to
    change (and to bind again).
    """

    _frozen = False

    def __setattr__(self, name: str, value: object) -> None:
        if self._frozen:
            raise ClassifierError(
                f"{self!r} is bound and frozen: change a copy "
                "(dataclasses.replace) and bind that"
            )
        object.__setattr__(self, name, value)

    def frozen(self: F) -> F:
        """This object if it is frozen already, else a frozen copy."""
        if self._frozen:
            return self
        copy = self._copy_to_freeze()
        object.__setattr__(copy, "_log", getattr(self, "_log", None))
        object.__setattr__(copy, "_frozen", True)
        return copy

    def _copy_to_freeze(self: F) -> F:
        return replace(self)  # type: ignore[type-var]


@dataclass(frozen=True)
class Rule:
    """One statement ``output <- guard``."""

    output: Expression
    guard: Expression

    @classmethod
    def of(cls, output: str | Expression, guard: str | Expression) -> "Rule":
        """A rule from source text or ASTs.

        Each call parses its texts afresh.  A rebuilt classifier holds the
        very ``Rule`` objects of the one before when both come from one
        catalogue entry, which parses its texts once
        (``ClassifierDefinition.rules``).
        """
        return cls(
            parse(output) if isinstance(output, str) else output,
            parse(guard) if isinstance(guard, str) else guard,
        )

    def to_source(self) -> str:
        return f"{self.output.to_source()} <- {self.guard.to_source()}"


@dataclass
class Classifier(Freezable, Annotated):
    """Maps g-tree data into one domain of one study-schema attribute.

    Rules are tried top to bottom; the first satisfied guard produces the
    value.  No satisfied guard (or a NULL guard, e.g. the question was
    never answered) leaves the record *unclassified* (NULL), never a
    silently wrong category.  A :meth:`frozen` copy holds its rules as a
    tuple.
    """

    name: str
    target_entity: str
    target_attribute: str
    target_domain: str
    rules: Sequence[Rule] = field(default_factory=list)
    description: str = ""
    source_form: str = ""

    def __post_init__(self) -> None:
        if not self.rules:
            raise ClassifierError(f"classifier {self.name!r} has no rules")

    def _copy_to_freeze(self) -> "Classifier":
        return replace(self, rules=tuple(self.rules))

    # -- evaluation -----------------------------------------------------------

    def classify(self, env: Environment, domain: Domain | None = None) -> object:
        """Apply the rules to one record's node values."""
        value, _ = self.explain(env, domain)
        return value

    def explain(
        self, env: Environment, domain: Domain | None = None
    ) -> tuple[object, int | None]:
        """Like :meth:`classify` but also reports which rule fired (index).

        This is the reference semantics, evaluated over the rules' ASTs;
        :meth:`compile` must agree with it on every record (property-tested).
        """
        for index, rule in enumerate(self.rules):
            if _EVALUATOR.satisfied(rule.guard, env):
                value = _EVALUATOR.evaluate(rule.output, env)
                if domain is not None:
                    value = domain.check(value)
                return value, index
        return None, None

    def compile(self, domain: Domain | None = None) -> CompiledClassifier:
        """One ``env -> value`` closure equal to ``explain(env, domain)[0]``.

        Compile once per run and call the closure per record: the rule
        closures are resolved here, not per record.  First satisfied guard
        wins, the domain check runs only on the rule that fired, and no
        satisfied guard yields NULL.  Errors, including a
        :class:`~repro.errors.DomainError` from an out-of-domain output,
        propagate.  Nothing is kept between records: a read keeps its
        classified rows (``GuavaSource.execute``'s result memo), so each
        record is classified once per data version.
        """
        rules = [
            (compile_predicate(rule.guard), compile_expression(rule.output))
            for rule in self.rules
        ]
        check = domain.check if domain is not None else None

        def classify(env: Environment) -> object:
            for guard, output in rules:
                if guard(env):
                    value = output(env)
                    return value if check is None else check(value)
            return None

        return classify

    # -- static analysis ----------------------------------------------------------

    def input_nodes(self) -> set[str]:
        """G-tree node names this classifier reads (for versioning)."""
        names: set[str] = set()
        for rule in self.rules:
            names |= referenced_identifiers(rule.guard)
            names |= referenced_identifiers(rule.output)
        return {name.split(".")[-1] for name in names}

    def validate_against(self, gtree: GTree) -> list[str]:
        """Node references absent from ``gtree`` (empty list = valid)."""
        return sorted(
            name for name in self.input_nodes() if not gtree.has_node(name)
        )

    def is_union_of_conjunctions(self) -> bool:
        """Hypothesis 3: every guard normalizes to a union of conjunctions."""
        return all(is_union_of_conjunctions(rule.guard) for rule in self.rules)

    @property
    def target(self) -> tuple[str, str, str]:
        return (self.target_entity, self.target_attribute, self.target_domain)

    def to_source(self) -> str:
        """The classifier in the analyst-facing mini-language."""
        from repro.multiclass.language import format_classifier

        return format_classifier(self)

    def __repr__(self) -> str:
        return (
            f"Classifier({self.name!r} -> {self.target_entity}."
            f"{self.target_attribute}:{self.target_domain}, {len(self.rules)} rules)"
        )


@dataclass
class EntityClassifier(Freezable, Annotated):
    """Identifies unique objects in a g-tree to bring into the study.

    "An analyst creates an entity classifier just like any other
    classifier, except the target object of the classifier is an entity
    rather than a domain.  Also, the classifier must refer to at least one
    node in the g-tree that represents a form."
    """

    name: str
    target_entity: str
    form: str
    condition: Expression = field(default_factory=lambda: Literal(True))
    description: str = ""
    #: For child entities of the has-a tree: the g-tree node holding the
    #: parent entity's record id (e.g. the finding form's ``procedure_id``).
    #: Study output then carries ``parent_record_id`` so warehouse queries
    #: can traverse the has-a edge.
    parent_link: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse(self.condition)

    def admits(self, env: Environment) -> bool:
        """True when a record qualifies as an instance of the entity."""
        return _EVALUATOR.satisfied(self.condition, env)

    def input_nodes(self) -> set[str]:
        names = referenced_identifiers(self.condition)
        return {name.split(".")[-1] for name in names} | {self.form}

    def validate_against(self, gtree: GTree) -> list[str]:
        """Problems with this entity classifier against a g-tree."""
        problems: list[str] = []
        if self.form != gtree.form_name:
            problems.append(
                f"form node {self.form!r} is not the g-tree's form "
                f"({gtree.form_name!r})"
            )
        for name in sorted(self.input_nodes() - {self.form}):
            if not gtree.has_node(name):
                problems.append(f"unknown node {name!r}")
        if self.parent_link is not None and not gtree.has_node(self.parent_link):
            problems.append(f"unknown parent-link node {self.parent_link!r}")
        return problems

    def __repr__(self) -> str:
        return (
            f"EntityClassifier({self.name!r}: {self.form} -> "
            f"{self.target_entity} WHERE {self.condition.to_source()})"
        )
