"""XML serialization of g-trees.

"The g-tree is stored as an XML Schema, which mimics the hierarchical
nature of the form interface."  Round-trips: ``gtree_from_xml(
gtree_to_xml(t))`` equals ``t`` structurally (annotations are provenance,
not structure, and are serialized separately if needed).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import date

from repro.errors import GTreeError
from repro.expr import parser
from repro.expr.parser import parse
from repro.guava.gtree import GNode, GTree
from repro.relational.types import DataType

#: The deepest ``<node>`` nesting :func:`gtree_from_xml` accepts, the
#: expression parser's limit: reading and walking a g-tree recurse once per
#: level, so a deeper document would exhaust the interpreter's stack.
MAX_DEPTH = parser.MAX_DEPTH


def gtree_to_xml(tree: GTree) -> str:
    """Serialize a g-tree to an XML string."""
    root = ET.Element(
        "gtree",
        {"tool": tree.tool_name, "version": tree.tool_version},
    )
    root.append(_node_to_element(tree.root))
    return ET.tostring(root, encoding="unicode")


def gtree_from_xml(text: str) -> GTree:
    """Parse a g-tree from XML produced by :func:`gtree_to_xml`.

    Malformed input raises :class:`~repro.errors.GTreeError` (or a
    :class:`~repro.errors.ParseError` from an enablement expression),
    including ``<node>`` nesting deeper than :data:`MAX_DEPTH`, an unknown
    ``stores`` type and a value that does not parse as its ``kind``.
    """
    try:
        root = ET.fromstring(text)
    except (ET.ParseError, UnicodeEncodeError) as exc:
        # A lone surrogate cannot be encoded for the parser.
        raise GTreeError(f"invalid g-tree XML: {exc}") from exc
    if root.tag != "gtree":
        raise GTreeError(f"expected <gtree> root, found <{root.tag}>")
    node_elements = [child for child in root if child.tag == "node"]
    if len(node_elements) != 1:
        raise GTreeError("g-tree XML must contain exactly one root <node>")
    return GTree(
        tool_name=root.get("tool", ""),
        tool_version=root.get("version", ""),
        root=_element_to_node(node_elements[0], 1),
    )


# -- encoding ------------------------------------------------------------------


def _node_to_element(node: GNode) -> ET.Element:
    attrs = {
        "name": node.name,
        "type": node.control_type,
    }
    if node.question:
        attrs["question"] = node.question
    if node.required:
        attrs["required"] = "true"
    if node.is_form:
        attrs["form"] = "true"
    if node.allows_free_text:
        attrs["free_text"] = "true"
    if node.data_type is not None:
        attrs["stores"] = node.data_type.value
    if node.enablement is not None:
        attrs["enabled_when"] = node.enablement.to_source()
    element = ET.Element("node", attrs)
    if node.default is not None:
        default = ET.SubElement(element, "default")
        _write_value(default, node.default)
    for value, label in node.options:
        option = ET.SubElement(element, "option")
        option.set("label", label)
        _write_value(option, value)
    for child in node.children:
        element.append(_node_to_element(child))
    return element


def _element_to_node(element: ET.Element, depth: int) -> GNode:
    if depth > MAX_DEPTH:
        raise GTreeError(f"g-tree XML nests deeper than {MAX_DEPTH} nodes")
    name = element.get("name")
    if not name:
        raise GTreeError("<node> missing name attribute")
    default = None
    options: list[tuple[object, str]] = []
    children: list[GNode] = []
    for child in element:
        if child.tag == "default":
            default = _read_value(child)
        elif child.tag == "option":
            options.append((_read_value(child), child.get("label", "")))
        elif child.tag == "node":
            children.append(_element_to_node(child, depth + 1))
        else:
            raise GTreeError(f"unexpected element <{child.tag}> in g-tree XML")
    stores = element.get("stores")
    try:
        data_type = DataType(stores) if stores else None
    except ValueError:
        raise GTreeError(f"<node {name!r}> stores unknown type {stores!r}") from None
    enablement_text = element.get("enabled_when")
    return GNode(
        name=name,
        control_type=element.get("type", ""),
        question=element.get("question", ""),
        options=tuple(options),
        default=default,
        required=element.get("required") == "true",
        allows_free_text=element.get("free_text") == "true",
        data_type=data_type,
        enablement=parse(enablement_text) if enablement_text else None,
        is_form=element.get("form") == "true",
        children=children,
    )


def _write_value(element: ET.Element, value: object) -> None:
    if isinstance(value, bool):
        element.set("kind", "boolean")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("kind", "integer")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("kind", "float")
        element.text = repr(value)
    elif isinstance(value, date):
        element.set("kind", "date")
        element.text = value.isoformat()
    else:
        element.set("kind", "text")
        element.text = str(value)


def _read_value(element: ET.Element) -> object:
    kind = element.get("kind", "text")
    text = element.text or ""
    if kind == "boolean":
        return text == "true"
    try:
        if kind == "integer":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "date":
            return date.fromisoformat(text)
    except ValueError:
        raise GTreeError(
            f"<{element.tag}> value {text!r} does not parse as {kind}"
        ) from None
    return text
