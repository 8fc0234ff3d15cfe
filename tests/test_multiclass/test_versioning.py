"""Tests for classifier propagation across tool versions (paper §6)."""

import pytest

from repro.guava import derive_gtree
from repro.multiclass import Classifier, Rule, propagate_classifiers
from repro.ui import (
    CheckBox,
    Control,
    Form,
    GroupBox,
    NumericBox,
    RadioGroup,
    ReportingTool,
)


def tool_v1() -> ReportingTool:
    form = Form(
        "visit",
        "Visit",
        controls=[
            RadioGroup("smoking", "Does the patient smoke?", choices=["Never", "Current"]),
            NumericBox("packs", "Packs per day", integer=False),
            CheckBox("hypoxia", "Hypoxia"),
        ],
    )
    return ReportingTool("tool", "1.0", forms=[form])


def tool_v2(
    rename_packs: bool = False,
    extend_smoking: bool = False,
    reword_hypoxia: bool = False,
    packs: Control | None = None,
) -> ReportingTool:
    smoking_choices = ["Never", "Current"] + (["Previous"] if extend_smoking else [])
    controls = [
        RadioGroup("smoking", "Does the patient smoke?", choices=smoking_choices),
        packs
        or NumericBox(
            "packs_per_day" if rename_packs else "packs",
            "Packs per day",
            integer=False,
        ),
        CheckBox("hypoxia", "Hypoxia observed?" if reword_hypoxia else "Hypoxia"),
    ]
    return ReportingTool("tool", "2.0", forms=[Form("visit", "Visit", controls=controls)])


def classifier_on(*nodes_and_rules) -> Classifier:
    return Classifier(
        name="c_" + nodes_and_rules[0][1][:8].replace(" ", "_"),
        target_entity="Procedure",
        target_attribute="A",
        target_domain="d",
        rules=[Rule.of(output, guard) for output, guard in nodes_and_rules],
    )


def trees(new_tool: ReportingTool):
    return (
        derive_gtree(tool_v1(), "visit"),
        derive_gtree(new_tool, "visit"),
    )


class TestPropagation:
    def test_unchanged_inputs_propagate(self):
        old, new = trees(tool_v2())
        classifier = classifier_on(("hypoxia", "hypoxia IS NOT NULL"))
        report = propagate_classifiers(old, new, [classifier])
        assert report.propagated == [classifier]
        assert not report.flagged and not report.broken

    def test_removed_node_breaks_with_rename_suggestion(self):
        old, new = trees(tool_v2(rename_packs=True))
        classifier = classifier_on(("packs", "packs IS NOT NULL"))
        report = propagate_classifiers(old, new, [classifier])
        assert len(report.broken) == 1
        _, changes = report.broken[0]
        assert changes[0].kind == "missing"
        # Same question wording => the rename is suggested.
        assert changes[0].suggestion == "packs_per_day"

    def test_option_change_flags(self):
        old, new = trees(tool_v2(extend_smoking=True))
        classifier = classifier_on(("'x'", "smoking = 'Current'"))
        report = propagate_classifiers(old, new, [classifier])
        assert len(report.flagged) == 1
        _, changes = report.flagged[0]
        assert changes[0].kind == "options"
        assert "Previous" in changes[0].detail

    def test_question_rewording_flags(self):
        old, new = trees(tool_v2(reword_hypoxia=True))
        classifier = classifier_on(("hypoxia", "hypoxia = TRUE"))
        report = propagate_classifiers(old, new, [classifier])
        assert len(report.flagged) == 1
        assert report.flagged[0][1][0].kind == "question"

    @pytest.mark.parametrize(
        "packs,detail",
        [
            (
                NumericBox("packs", "Packs per day", integer=True),
                "stored type changed float -> integer",
            ),
            (GroupBox("packs", "Packs per day"), "stored type changed float -> none"),
        ],
        ids=["float-to-integer", "float-to-layout"],
    )
    def test_stored_type_change_flags(self, packs, detail):
        old, new = trees(tool_v2(packs=packs))
        classifier = classifier_on(("packs", "packs > 0"))
        report = propagate_classifiers(old, new, [classifier])
        # The node is still there, so the classifier is flagged, not broken.
        assert not report.propagated and not report.broken
        assert [c for c, _ in report.flagged] == [classifier]
        [change] = report.flagged[0][1]
        assert (change.node, change.kind, change.detail) == ("packs", "type", detail)
        assert change.suggestion is None

    def test_mixed_set_sorted_into_buckets(self):
        old, new = trees(tool_v2(rename_packs=True, extend_smoking=True))
        survives = classifier_on(("hypoxia", "hypoxia = TRUE"))
        flagged = classifier_on(("'x'", "smoking = 'Never'"))
        broken = classifier_on(("packs * 2", "packs > 0"))
        report = propagate_classifiers(old, new, [survives, flagged, broken])
        assert report.propagated == [survives]
        assert [c.name for c, _ in report.flagged] == [flagged.name]
        assert [c.name for c, _ in report.broken] == [broken.name]
        assert report.total == 3
        assert "1 propagated, 1 flagged, 1 broken" in report.summary()

    def test_classifier_over_multiple_nodes_needs_all(self):
        old, new = trees(tool_v2(rename_packs=True))
        classifier = classifier_on(("packs", "hypoxia = TRUE"))
        report = propagate_classifiers(old, new, [classifier])
        assert len(report.broken) == 1

    def test_world_tools_upgrade_scenario(self, world):
        """Classifiers written for CORI 1.0 propagate to an identical 2.0."""
        from repro.analysis import vendor_classifiers_for
        from repro.clinical import build_cori_tool

        source = world.source("cori_warehouse_feed")
        vendor = vendor_classifiers_for(source)
        old = source.gtree("procedure")
        new = derive_gtree(build_cori_tool(version="2.0"), "procedure")
        report = propagate_classifiers(old, new, vendor.base)
        assert len(report.propagated) == len(vendor.base)
