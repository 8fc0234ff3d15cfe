"""Tests for g-tree XML serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clinical.cori import build_cori_tool
from repro.errors import GTreeError, ReproError
from repro.guava import derive_gtree, gtree_from_xml, gtree_to_xml
from repro.guava.xmlio import MAX_DEPTH
from repro.ui import ReportingTool
from tests.conftest import build_fig2_form


class TestRoundTrip:
    def test_fig2_tree_roundtrips(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        restored = gtree_from_xml(gtree_to_xml(tree))
        assert restored.root == tree.root
        assert restored.tool_name == tree.tool_name
        assert restored.tool_version == tree.tool_version

    def test_all_world_trees_roundtrip(self, world):
        for source in world.sources:
            for form_name, tree in source.gtrees.items():
                restored = gtree_from_xml(gtree_to_xml(tree))
                assert restored.root == tree.root, (source.name, form_name)

    def test_options_and_defaults_preserved(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        restored = gtree_from_xml(gtree_to_xml(tree))
        assert restored.node("smoking").options == tree.node("smoking").options
        assert restored.node("hypoxia").default is False

    def test_enablement_preserved(self, fig2_tool):
        tree = derive_gtree(fig2_tool, "procedure")
        restored = gtree_from_xml(gtree_to_xml(tree))
        assert (
            restored.node("frequency").enablement.to_source()
            == tree.node("frequency").enablement.to_source()
        )

    def test_xml_mimics_hierarchy(self, fig2_tool):
        xml = gtree_to_xml(derive_gtree(fig2_tool, "procedure"))
        # The frequency node is nested inside the smoking node element.
        assert xml.index('name="smoking"') < xml.index('name="frequency"')


class TestErrors:
    def test_invalid_xml(self):
        with pytest.raises(GTreeError):
            gtree_from_xml("<not closed")

    def test_wrong_root_tag(self):
        with pytest.raises(GTreeError):
            gtree_from_xml("<other/>")

    def test_missing_node(self):
        with pytest.raises(GTreeError):
            gtree_from_xml('<gtree tool="t" version="1"></gtree>')

    def test_node_missing_name(self):
        with pytest.raises(GTreeError):
            gtree_from_xml('<gtree tool="t" version="1"><node type="Form"/></gtree>')

    def test_unexpected_element(self):
        xml = (
            '<gtree tool="t" version="1">'
            '<node name="f" type="Form" form="true"><mystery/></node></gtree>'
        )
        with pytest.raises(GTreeError):
            gtree_from_xml(xml)

    @pytest.mark.parametrize(
        "node",
        [
            '<node name="f" type="Form" form="true" stores="nope"/>',
            '<node name="f" type="Form" form="true">'
            '<default kind="integer">x</default></node>',
            '<node name="f" type="Form" form="true">'
            '<option label="l" kind="float">1,5</option></node>',
            '<node name="f" type="Form" form="true">'
            '<default kind="date">2020-13-01</default></node>',
        ],
        ids=["stores", "integer", "float", "date"],
    )
    def test_a_bad_value_raises_a_gtree_error(self, node):
        with pytest.raises(GTreeError):
            gtree_from_xml(f'<gtree tool="t" version="1">{node}</gtree>')

    def test_nesting_is_limited(self):
        def nested(depth):
            opening = '<node name="n0" type="Form" form="true">' + "".join(
                f'<node name="n{i}" type="Box">' for i in range(1, depth)
            )
            return f'<gtree tool="t" version="1">{opening}{"</node>" * depth}</gtree>'

        deepest = gtree_from_xml(nested(MAX_DEPTH))
        assert deepest.has_node(f"n{MAX_DEPTH - 1}")
        for depth in (MAX_DEPTH + 1, 3000):
            with pytest.raises(GTreeError, match="nests deeper"):
                gtree_from_xml(nested(depth))


def _tree_sources() -> list[str]:
    fig2 = ReportingTool("fig2", "1.0", forms=[build_fig2_form()])
    return [
        gtree_to_xml(derive_gtree(fig2, "procedure")),
        gtree_to_xml(derive_gtree(build_cori_tool(), "procedure")),
    ]


TREE_SOURCES = _tree_sources()

#: Fragments of the format, so edits reach past the XML parser.
XML_TOKENS = (
    "<", ">", '"', "/", "=", "&amp;", "&bogus;", "</node>", '<node name="x">',
    '<node type="Box">', '<default kind="integer">', '<default kind="date">',
    '<default kind="float">', "</default>", '<option label="l" kind="date">',
    "</option>", '<mystery/>', ' stores="nope"', ' stores="integer"',
    ' kind="integer"', ' kind="date"', ' kind="float"', ' form="true"',
    ' enabled_when="(("', ' enabled_when="x = 1"', "2020-13-01", "1e999", "x",
)

xml_edits = st.lists(
    st.tuples(
        st.integers(0, 100_000),
        st.integers(0, 2),
        st.one_of(st.characters(), st.sampled_from(XML_TOKENS)),
    ),
    min_size=1,
    max_size=6,
)


def _mutate(source: str, edits: list[tuple[int, int, str]]) -> str:
    text = source
    for position, kind, fragment in edits:
        at = position % (len(text) + 1)
        if kind == 0:
            text = text[:at] + fragment + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + len(fragment) :]
        else:
            text = text[:at] + fragment + text[at + len(fragment) :]
    return text


class TestFrontDoorFuzz:
    """Mutated documents either parse or raise a typed ``ReproError``."""

    @settings(max_examples=300, deadline=None)
    @given(source=st.sampled_from(TREE_SOURCES), edits=xml_edits)
    def test_mutated_documents_raise_only_typed_errors(self, source, edits):
        try:
            gtree_from_xml(_mutate(source, edits))
        except ReproError:
            pass

    def test_a_lone_surrogate_is_a_typed_error(self):
        with pytest.raises(GTreeError):
            gtree_from_xml("\ud800" + TREE_SOURCES[0])

    def test_the_unmutated_documents_parse(self):
        for source in TREE_SOURCES:
            assert gtree_to_xml(gtree_from_xml(source)) == source
