"""Study schemas: what analysts want to study (paper Figure 4).

"A study schema simplifies the traditional ER model in that the only
relationship type is has-a with a single entity of primary interest
sitting atop a tree ... The biggest difference between a study schema and
an ER diagram is the addition of multiple domains for an attribute."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import StudySchemaError
from repro.multiclass.domain import Domain
from repro.util.annotations import Annotated


@dataclass
class Attribute:
    """One attribute with one or more alternative domains."""

    name: str
    domains: dict[str, Domain] = field(default_factory=dict)
    description: str = ""

    def add_domain(self, domain: Domain) -> Domain:
        """Register another representation for this attribute."""
        if domain.name in self.domains:
            raise StudySchemaError(
                f"attribute {self.name!r} already has domain {domain.name!r}"
            )
        self.domains[domain.name] = domain
        return domain

    def domain(self, name: str) -> Domain:
        if name not in self.domains:
            raise StudySchemaError(
                f"attribute {self.name!r} has no domain {name!r} "
                f"(has {sorted(self.domains)})"
            )
        return self.domains[name]


@dataclass
class Entity:
    """One entity in the has-a tree."""

    name: str
    attributes: dict[str, Attribute] = field(default_factory=dict)
    children: list["Entity"] = field(default_factory=list)
    description: str = ""

    def add_attribute(self, name: str, *domains: Domain, description: str = "") -> Attribute:
        """Add an attribute with its initial domain(s)."""
        if name in self.attributes:
            raise StudySchemaError(f"entity {self.name!r} already has attribute {name!r}")
        attribute = Attribute(name, description=description)
        for domain in domains:
            attribute.add_domain(domain)
        self.attributes[name] = attribute
        return attribute

    def attribute(self, name: str) -> Attribute:
        if name not in self.attributes:
            raise StudySchemaError(
                f"entity {self.name!r} has no attribute {name!r} "
                f"(has {sorted(self.attributes)})"
            )
        return self.attributes[name]

    def add_child(self, entity: "Entity") -> "Entity":
        """Attach a has-a child entity."""
        self.children.append(entity)
        return entity

    def iter_tree(self) -> Iterator["Entity"]:
        yield self
        for child in self.children:
            yield from child.iter_tree()


@dataclass
class StudySchema(Annotated):
    """The has-a tree with its primary entity at the top.

    Analysts expand the schema as studies require: add entities,
    attributes, and domains — never remove silently (annotations record
    every change).
    """

    name: str
    primary: Entity

    def __post_init__(self) -> None:
        self._check()

    def _check(self) -> None:
        names: list[str] = []
        seen: set[int] = set()
        for entity in self.primary.iter_tree():
            if id(entity) in seen:
                raise StudySchemaError(
                    f"entity {entity.name!r} appears twice in the has-a tree"
                )
            seen.add(id(entity))
            names.append(entity.name)
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise StudySchemaError(f"duplicate entity names: {sorted(duplicates)}")

    # -- lookup ------------------------------------------------------------------

    def entity(self, name: str) -> Entity:
        if self.primary.name == name:  # the common case, without a walk
            return self.primary
        for entity in self.primary.iter_tree():
            if entity.name == name:
                return entity
        raise StudySchemaError(f"study schema has no entity {name!r}")

    def has_entity(self, name: str) -> bool:
        return self.primary.name == name or any(
            entity.name == name for entity in self.primary.iter_tree()
        )

    def entities(self) -> list[Entity]:
        return list(self.primary.iter_tree())

    def domain_of(self, entity: str, attribute: str, domain: str) -> Domain:
        """Resolve an (entity, attribute, domain) target."""
        return self.entity(entity).attribute(attribute).domain(domain)

    def parent_of(self, name: str) -> Entity | None:
        """The has-a parent of an entity (None for the primary)."""
        for entity in self.primary.iter_tree():
            for child in entity.children:
                if child.name == name:
                    return entity
        if name == self.primary.name:
            return None
        raise StudySchemaError(f"study schema has no entity {name!r}")

    # -- statistics ---------------------------------------------------------------

    def attribute_count(self) -> int:
        return sum(len(entity.attributes) for entity in self.entities())

    def domain_count(self) -> int:
        return sum(
            len(attribute.domains)
            for entity in self.entities()
            for attribute in entity.attributes.values()
        )

    # -- display --------------------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering in the style of the paper's Figure 4."""
        lines: list[str] = []

        def visit(entity: Entity, depth: int) -> None:
            lines.append(f"{'  ' * depth}Entity: {entity.name}")
            for attribute in entity.attributes.values():
                domains = " | ".join(str(d) for d in attribute.domains.values())
                lines.append(f"{'  ' * depth}  {attribute.name}: {domains}")
            for child in entity.children:
                visit(child, depth + 1)

        visit(self.primary, 0)
        return "\n".join(lines)
