"""G-trees: the GUI-as-view data structure (paper Figures 2 and 3).

"Each node in a g-tree captures context information about a control on the
interface, including the exact wording of a control's question and answer
options, whether there is a default value, and whether the control is
required to be filled in."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import GTreeError
from repro.expr.ast import Expression
from repro.relational.types import DataType
from repro.util.annotations import Annotated


@dataclass
class GNode:
    """One node: a control (or the form itself) with its full context."""

    name: str
    control_type: str
    question: str = ""
    options: tuple[tuple[object, str], ...] = ()
    default: object = None
    required: bool = False
    allows_free_text: bool = False
    data_type: DataType | None = None
    enablement: Expression | None = None
    is_form: bool = False
    children: list["GNode"] = field(default_factory=list)

    @property
    def stores_data(self) -> bool:
        """True when the node maps to a naive-schema column."""
        return self.data_type is not None

    @property
    def has_unselected_state(self) -> bool:
        """Choice controls with no default start unanswered (Figure 3b).

        "The smoking node has an option for unselected because the radio
        list starts out with no option selected."
        """
        return bool(self.options) and self.default is None

    def iter_tree(self) -> Iterator["GNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    def context_summary(self) -> str:
        """Render the node's context like the paper's Figure 3 boxes."""
        lines = [f"Node: {self.name} ({self.control_type})"]
        if self.question:
            lines.append(f"  Question: {self.question!r}")
        if self.options:
            rendered = ", ".join(str(value) for value, _ in self.options)
            lines.append(f"  Options: {rendered}")
            if self.has_unselected_state:
                lines.append("  Starts unselected (stored NULL until answered)")
        if self.allows_free_text:
            lines.append("  Accepts free text")
        if self.default is not None:
            lines.append(f"  Default: {self.default!r}")
        if self.required:
            lines.append("  Required")
        if self.enablement is not None:
            lines.append(f"  Enabled when: {self.enablement.to_source()}")
        if self.data_type is not None:
            lines.append(f"  Stores: {self.data_type.value}")
        return "\n".join(lines)


@dataclass
class GTree(Annotated):
    """The g-tree of one form of one reporting tool.

    The root node represents the form itself (entity classifiers must
    reference it), and there is a node for every control — including
    layout-only ones like group boxes.
    """

    tool_name: str
    tool_version: str
    root: GNode

    def __post_init__(self) -> None:
        if not self.root.is_form:
            raise GTreeError("g-tree root must be a form node")
        names = [node.name for node in self.root.iter_tree()]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise GTreeError(f"duplicate node names: {sorted(duplicates)}")
        self._by_name = {node.name: node for node in self.root.iter_tree()}
        self._parent: dict[str, str | None] = {self.root.name: None}
        for node in self.root.iter_tree():
            for child in node.children:
                self._parent[child.name] = node.name

    # -- lookup ----------------------------------------------------------------

    @property
    def form_name(self) -> str:
        return self.root.name

    def node(self, name: str) -> GNode:
        """Look up a node by name."""
        if name not in self._by_name:
            raise GTreeError(f"g-tree {self.form_name} has no node {name!r}")
        return self._by_name[name]

    def has_node(self, name: str) -> bool:
        return name in self._by_name

    def parent_of(self, name: str) -> GNode | None:
        """The g-tree parent (containment or enablement) of a node."""
        parent_name = self._parent.get(name)
        if parent_name is None:
            return None
        return self._by_name[parent_name]

    # -- traversal ---------------------------------------------------------------

    def iter_nodes(self) -> Iterator[GNode]:
        """Every node, pre-order from the root."""
        return self.root.iter_tree()

    def data_nodes(self) -> list[GNode]:
        """Nodes that store data (map to naive-schema columns)."""
        return [node for node in self.iter_nodes() if node.stores_data]

    def node_count(self) -> int:
        return len(self._by_name)

    # -- display -------------------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering of the tree (paper Figure 2 style)."""
        lines: list[str] = []

        def visit(node: GNode, depth: int) -> None:
            marker = "*" if node.stores_data else " "
            lines.append(f"{'  ' * depth}{marker} {node.name} [{node.control_type}]")
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"GTree({self.tool_name} v{self.tool_version}, form={self.form_name!r}, "
            f"{self.node_count()} nodes)"
        )
