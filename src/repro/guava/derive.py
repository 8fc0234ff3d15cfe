"""Automatic g-tree derivation from form definitions (Hypothesis 1).

The paper's prototype extends Visual Studio .NET so the IDE generates a
g-tree from the code that makes up a reporting tool's GUI.  Here the role
of "the code that makes up the GUI" is played by the declarative
:class:`~repro.ui.form.Form` model, and derivation is total: every control
yields a node, and every data control's database mapping comes for free
because the naive schema shares the control names.

Structure rule (paper Figure 2): the g-tree parent is the *enablement*
source when a control only becomes enabled after another is answered
("the frequency node appears as a child of the smoking node"); otherwise
it is the visual container.
"""

from __future__ import annotations

from repro.errors import DerivationError
from repro.guava.gtree import GNode, GTree
from repro.ui.controls import Control
from repro.ui.form import Form
from repro.ui.toolkit import ReportingTool
from repro.util.annotations import AnnotationLog
from repro.util.clock import Clock


def derive_gtree(
    tool: ReportingTool,
    form_name: str,
    clock: Clock | None = None,
    author: str = "guava-ide",
) -> GTree:
    """Derive the g-tree of one form.

    Raises :class:`DerivationError` if enablement re-parenting would
    create a cycle (a control enabling its own ancestor).
    """
    form = tool.form(form_name)
    nodes: dict[str, GNode] = {}
    for control in form.iter_controls():
        nodes[control.name] = _node_for(control)

    # Decide each control's g-tree parent: enablement source wins.
    containment: dict[str, str] = {}
    for control in form.iter_controls():
        for child in control.children:
            containment[child.name] = control.name
    parent: dict[str, str] = {}
    for control in form.iter_controls():
        enabler = form.enablement_parent(control)
        if enabler is not None and enabler.name != control.name:
            parent[control.name] = enabler.name
        elif control.name in containment:
            parent[control.name] = containment[control.name]
        else:
            parent[control.name] = form.name  # direct child of the form root

    _check_acyclic(parent, form)

    root = GNode(
        name=form.name,
        control_type="Form",
        question=form.title,
        is_form=True,
    )
    all_nodes = {form.name: root, **nodes}
    # Attach children in the form's visual (pre-order) sequence so the
    # g-tree is deterministic and mirrors the screen layout.
    for control in form.iter_controls():
        all_nodes[parent[control.name]].children.append(nodes[control.name])

    tree = GTree(tool.name, tool.version, root)
    if clock is not None:
        tree.annotations = AnnotationLog(clock)
    tree.annotate(
        author,
        "derived g-tree",
        f"generated from {tool.name} v{tool.version} form {form.name!r}",
    )
    return tree


def derive_all(
    tool: ReportingTool, clock: Clock | None = None, author: str = "guava-ide"
) -> dict[str, GTree]:
    """Derive g-trees for every form of a tool."""
    return {
        form.name: derive_gtree(tool, form.name, clock=clock, author=author)
        for form in tool.forms
    }


def _node_for(control: Control) -> GNode:
    return GNode(
        name=control.name,
        control_type=type(control).__name__,
        question=control.question,
        options=control.options,
        default=control.default,
        required=control.required,
        allows_free_text=control.allows_free_text,
        data_type=control.data_type,
        enablement=control.enabled_when,
    )


def _check_acyclic(parent: dict[str, str], form: Form) -> None:
    for start in parent:
        seen = {start}
        current = parent.get(start)
        while current is not None and current != form.name:
            if current in seen:
                raise DerivationError(
                    f"enablement re-parenting creates a cycle at {current!r}"
                )
            seen.add(current)
            current = parent.get(current)
