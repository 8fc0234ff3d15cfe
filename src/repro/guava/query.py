"""Queries against g-trees.

"The g-tree behaves like a view; when analysts write classifiers, they
express queries against the g-trees."  A :class:`GTreeQuery` names the
data nodes of interest and optionally filters with a condition over node
names — everything an analyst needs without ever seeing the physical
schema.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GuavaError
from repro.expr.analysis import referenced_identifiers
from repro.expr.ast import Expression
from repro.expr.parser import parse
from repro.guava.gtree import GTree
from repro.relational.query import _fingerprint


@dataclass(frozen=True)
class GTreeQuery:
    """An immutable query over one g-tree.

    ``nodes`` — data nodes whose values to return (empty = all data nodes);
    ``condition`` — boolean filter over node names.
    The record key is always included so results stay joinable.
    """

    gtree: GTree
    nodes: tuple[str, ...] = ()
    condition: Expression | None = None

    def __post_init__(self) -> None:
        for name in self.nodes:
            node = self.gtree.node(name)  # raises on unknown
            if not node.stores_data:
                raise GuavaError(
                    f"node {name!r} stores no data and cannot be selected"
                )
        if self.condition is not None:
            for identifier in referenced_identifiers(self.condition):
                leaf = identifier.split(".")[-1]
                if not self.gtree.has_node(leaf):
                    raise GuavaError(
                        f"query references unknown g-tree node {identifier!r}"
                    )
                if not self.gtree.node(leaf).stores_data:
                    raise GuavaError(
                        f"node {identifier!r} stores no data (a "
                        f"{self.gtree.node(leaf).control_type}) and cannot "
                        "appear in a condition"
                    )

    # -- builder API -------------------------------------------------------------

    def select(self, *names: str) -> "GTreeQuery":
        """Return a query selecting the named data nodes."""
        return GTreeQuery(self.gtree, self.nodes + names, self.condition)

    def where(self, condition: str | Expression) -> "GTreeQuery":
        """Add a filter; multiple calls AND together."""
        expr = parse(condition) if isinstance(condition, str) else condition
        if self.condition is not None:
            from repro.expr.ast import BinaryOp

            expr = BinaryOp("AND", self.condition, expr)
        return GTreeQuery(self.gtree, self.nodes, expr)

    # -- introspection ---------------------------------------------------------------

    def shape(self) -> str:
        """The form and a type-tagged fingerprint of the nodes and the
        condition: what a source's plan-cache and memo keys name.

        Kept on the query once its text is fixed (no mutable value below
        it, see :func:`~repro.relational.query._fingerprint`), so a query a
        binding holds is walked once, not on every read.
        """
        kept = self.__dict__.get("_shape")
        if kept is not None:
            return kept
        parts = [self.gtree.form_name, ":"]
        fixed = _fingerprint((self.nodes, self.condition), parts.append)
        text = "".join(parts)
        if fixed:
            object.__setattr__(self, "_shape", text)
        return text

    def selected_nodes(self) -> tuple[str, ...]:
        """The output node columns (all data nodes when none were named)."""
        if self.nodes:
            return self.nodes
        return tuple(node.name for node in self.gtree.data_nodes())
