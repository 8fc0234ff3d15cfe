"""Study schemas: what analysts want to study (paper Figure 4).

"A study schema simplifies the traditional ER model in that the only
relationship type is has-a with a single entity of primary interest
sitting atop a tree ... The biggest difference between a study schema and
an ER diagram is the addition of multiple domains for an attribute."

A schema many studies share is *frozen* (:meth:`StudySchema.freeze`): its
entities, attributes and domains can no longer change, so whatever is
derived from it (a binding's row maps, say) stays valid for its life.  To
grow a frozen schema, change a :meth:`~StudySchema.copy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Iterator, Mapping

from repro.errors import StudySchemaError
from repro.multiclass.domain import Domain
from repro.util.annotations import Annotated


@dataclass
class Attribute:
    """One attribute with one or more alternative domains."""

    name: str
    domains: Mapping[str, Domain] = field(default_factory=dict)
    description: str = ""

    def add_domain(self, domain: Domain) -> Domain:
        """Register another representation for this attribute."""
        _refuse_if_frozen(self.domains, "attribute", self.name)
        if domain.name in self.domains:
            raise StudySchemaError(
                f"attribute {self.name!r} already has domain {domain.name!r}"
            )
        self.domains[domain.name] = domain  # type: ignore[index]
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
    attributes: Mapping[str, Attribute] = field(default_factory=dict)
    children: list["Entity"] | tuple["Entity", ...] = field(default_factory=list)
    description: str = ""

    def add_attribute(self, name: str, *domains: Domain, description: str = "") -> Attribute:
        """Add an attribute with its initial domain(s)."""
        _refuse_if_frozen(self.attributes, "entity", self.name)
        if name in self.attributes:
            raise StudySchemaError(f"entity {self.name!r} already has attribute {name!r}")
        attribute = Attribute(name, description=description)
        for domain in domains:
            attribute.add_domain(domain)
        self.attributes[name] = attribute  # type: ignore[index]
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
        _refuse_if_frozen(self.attributes, "entity", self.name)
        self.children.append(entity)  # type: ignore[union-attr]
        return entity

    def iter_tree(self) -> Iterator["Entity"]:
        yield self
        for child in self.children:
            yield from child.iter_tree()


def _refuse_if_frozen(members: Mapping, kind: str, name: str) -> None:
    if isinstance(members, MappingProxyType):
        raise StudySchemaError(
            f"{kind} {name!r} belongs to a frozen study schema: change a copy "
            "(StudySchema.copy) instead"
        )


@dataclass(eq=False)
class StudySchema(Annotated):
    """The has-a tree with its primary entity at the top.

    Analysts expand the schema as studies require: add entities,
    attributes, and domains — never remove silently (annotations record
    every change).  Compared and hashed by identity: a frozen schema is
    immutable, so its identity stands for its content.
    """

    name: str
    primary: Entity

    #: ``(entity, attribute, domain) -> Domain`` and ``name -> Entity``,
    #: set by :meth:`freeze`; None while the schema can still change.
    _targets: dict[tuple[str, str, str], Domain] | None = field(
        default=None, init=False, repr=False
    )
    _entities: dict[str, Entity] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._check()

    # -- freezing --------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._targets is not None

    def freeze(self) -> "StudySchema":
        """Make this schema immutable and return it.

        ``add_attribute``, ``add_domain`` and ``add_child`` then raise
        :class:`~repro.errors.StudySchemaError`, attribute and domain maps
        are read-only and children a tuple.  Lookups become one dict probe
        each.  Annotating stays open: the log is provenance, not schema.
        """
        if self.frozen:
            return self
        entities: dict[str, Entity] = {}
        targets: dict[tuple[str, str, str], Domain] = {}
        for entity in self.primary.iter_tree():
            entities[entity.name] = entity
            for attribute in entity.attributes.values():
                for domain in attribute.domains.values():
                    targets[(entity.name, attribute.name, domain.name)] = domain
                attribute.domains = MappingProxyType(dict(attribute.domains))
            entity.attributes = MappingProxyType(dict(entity.attributes))
            entity.children = tuple(entity.children)
        self._entities = entities
        self._targets = targets
        return self

    def copy(self) -> "StudySchema":
        """An unfrozen copy to change, with this schema's annotations so far.

        New entities and attributes over the same ``Domain`` objects (which
        are immutable), so changing the copy leaves this schema as it is.
        """

        def copied(entity: Entity) -> Entity:
            twin = Entity(entity.name, description=entity.description)
            for attribute in entity.attributes.values():
                twin.add_attribute(
                    attribute.name,
                    *attribute.domains.values(),
                    description=attribute.description,
                )
            for child in entity.children:
                twin.add_child(copied(child))
            return twin

        schema = StudySchema(self.name, copied(self.primary))
        schema.annotations = self.annotations.copy()
        return schema

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
        if self._entities is not None and name in self._entities:
            return self._entities[name]
        if self.primary.name == name:  # the common case, without a walk
            return self.primary
        for entity in self.primary.iter_tree():
            if entity.name == name:
                return entity
        raise StudySchemaError(f"study schema has no entity {name!r}")

    def has_entity(self, name: str) -> bool:
        if self._entities is not None:
            return name in self._entities
        return self.primary.name == name or any(
            entity.name == name for entity in self.primary.iter_tree()
        )

    def entities(self) -> list[Entity]:
        return list(self.primary.iter_tree())

    def domain_of(self, entity: str, attribute: str, domain: str) -> Domain:
        """Resolve an (entity, attribute, domain) target."""
        if self._targets is not None:
            found = self._targets.get((entity, attribute, domain))
            if found is not None:
                return found
        return self.entity(entity).attribute(attribute).domain(domain)

    def check_targets(self, targets: AbstractSet[tuple[str, str, str]]) -> None:
        """Resolve every (entity, attribute, domain) target, raising for an
        unknown one as :meth:`domain_of` does; on a frozen schema, one set
        comparison when all are known."""
        if self._targets is not None and self._targets.keys() >= targets:
            return
        for target in targets:
            self.domain_of(*target)

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
