"""Tests for g-trees and their derivation from forms (Figures 2–3, H1)."""

import pytest

from repro.errors import DerivationError, GTreeError
from repro.guava import derive_all, derive_gtree
from repro.guava.gtree import GNode, GTree
from repro.relational import DataType
from repro.ui import CheckBox, Form, GroupBox, NumericBox, ReportingTool
from repro.util import TickingClock


class TestDerivationStructure:
    def test_node_for_every_control_including_groups(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        # 9 controls + the form root
        assert tree.node_count() == 10
        assert tree.node("complications").control_type == "GroupBox"

    def test_root_is_form_node(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.root.is_form
        assert tree.root.name == "procedure"

    def test_containment_parenting(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.parent_of("hypoxia").name == "complications"

    def test_enablement_overrides_containment(self, fig2_tool):
        """Figure 2: frequency appears as a child of smoking."""
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.parent_of("frequency").name == "smoking"

    def test_enablement_cycle_rejected(self):
        form = Form(
            "f",
            "F",
            controls=[
                CheckBox("a", "A", enabled_when="b = TRUE"),
                CheckBox("b", "B", enabled_when="a = TRUE"),
            ],
        )
        tool = ReportingTool("t", "1", forms=[form])
        with pytest.raises(DerivationError):
            derive_gtree(tool, "f")

    def test_derive_all_covers_every_form(self, world):
        for source in world.sources:
            trees = derive_all(source.tool)
            assert set(trees) == set(source.tool.form_names())

    def test_h1_full_control_coverage(self, world):
        """Hypothesis 1: derivation is total — every control has a node."""
        for source in world.sources:
            for form in source.tool.forms:
                tree = derive_all(source.tool)[form.name]
                control_names = {c.name for c in form.iter_controls()}
                node_names = {n.name for n in tree.iter_nodes()} - {form.name}
                assert node_names == control_names

    def test_derivation_annotated(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure", clock=TickingClock())
        assert tree.annotations.created is not None
        assert "derived" in tree.annotations.created.action


class TestNodeContext:
    """Figure 3: every node carries its full UI context."""

    def test_question_wording_captured(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.node("smoking").question == "Does the patient smoke?"

    def test_options_captured(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        values = [value for value, _ in tree.node("smoking").options]
        assert values == ["Never", "Current", "Previous"]

    def test_radio_has_unselected_state(self, fig2_tool):
        """Figure 3b: radio list starts with no option selected."""
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.node("smoking").has_unselected_state

    def test_checkbox_with_default_has_no_unselected_state(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        assert not tree.node("hypoxia").has_unselected_state

    def test_free_text_flag(self, fig2_tool):
        """Figure 3a: the alcohol drop-down allows free text."""
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.node("alcohol").allows_free_text

    def test_enablement_condition_recorded(self, fig2_tool):
        """Figure 3c: frequency is not enabled until smoking is answered."""
        tree = derive_gtree(fig2_tool, "procedure")
        node = tree.node("frequency")
        assert node.enablement is not None
        assert "smoking" in node.enablement.to_source()

    def test_data_types(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        assert tree.node("hypoxia").data_type is DataType.BOOLEAN
        assert tree.node("frequency").data_type is DataType.FLOAT
        assert tree.node("complications").data_type is None

    def test_context_summary_renders(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        text = tree.node("smoking").context_summary()
        assert "Does the patient smoke?" in text
        assert "unselected" in text

    def test_render_marks_data_nodes(self, fig2_tool):
        rendered = derive_gtree(fig2_tool, "procedure").render()
        assert "* hypoxia" in rendered
        assert "* complications" not in rendered


class TestGTreeInvariants:
    def test_root_must_be_form(self):
        with pytest.raises(GTreeError):
            GTree("t", "1", GNode("x", "CheckBox"))

    def test_duplicate_names_rejected(self):
        root = GNode(
            "f",
            "Form",
            is_form=True,
            children=[GNode("a", "CheckBox"), GNode("a", "TextBox")],
        )
        with pytest.raises(GTreeError):
            GTree("t", "1", root)

    def test_unknown_node_lookup_raises(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        with pytest.raises(GTreeError):
            tree.node("ghost")

    def test_data_nodes(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        assert len(tree.data_nodes()) == 7
