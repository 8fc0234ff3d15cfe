"""Shared fixtures: the Figure 2 form, sources, and a cached clinical world."""

from __future__ import annotations

import pytest

from repro.clinical import build_world
from repro.guava import GuavaSource
from repro.patterns import GenericPattern, NaivePattern, PatternChain
from repro.relational import Database
from repro.ui import (
    CheckBox,
    CheckList,
    DropDown,
    Form,
    GroupBox,
    NumericBox,
    RadioGroup,
    ReportingTool,
    TextBox,
)


def by_column(table, rows) -> list[list[object]]:
    """``rows`` (mappings holding every column) as ``table``'s column
    lists, the form :meth:`Table.restore_extent` takes."""
    return [[row[name] for row in rows] for name in table.schema.column_names]


def build_fig2_form() -> Form:
    """The paper's Figure 2 dialog: Procedure with Complications and
    Medical History groups; the frequency box enables once smoking is
    answered; the alcohol drop-down allows free text (Figure 3a)."""
    return Form(
        "procedure",
        "Procedure",
        controls=[
            GroupBox(
                "complications",
                "Complications",
                children=[
                    CheckBox("hypoxia", "Hypoxia"),
                    CheckBox("surgeon_consulted", "Surgeon Consulted"),
                    TextBox("other", "Other"),
                ],
            ),
            GroupBox(
                "medical_history",
                "Medical History",
                children=[
                    CheckBox("renal_failure", "Renal Failure"),
                    RadioGroup(
                        "smoking",
                        "Does the patient smoke?",
                        choices=["Never", "Current", "Previous"],
                    ),
                    NumericBox(
                        "frequency",
                        "Frequency (packs per day)",
                        integer=False,
                        minimum=0,
                        enabled_when="smoking IS NOT NULL",
                    ),
                    DropDown(
                        "alcohol",
                        "Alcohol",
                        choices=["None", "Light", "Heavy"],
                        free_text=True,
                    ),
                ],
            ),
        ],
    )


@pytest.fixture
def fig2_form() -> Form:
    return build_fig2_form()


@pytest.fixture
def fig2_tool(fig2_form: Form) -> ReportingTool:
    return ReportingTool("cori_like", "1.0", forms=[fig2_form])


@pytest.fixture
def naive_source(fig2_tool: ReportingTool) -> GuavaSource:
    """A Figure 2 source with the identity (naive) layout."""
    chain = PatternChain(fig2_tool.naive_schemas(), [NaivePattern()])
    return GuavaSource("naive_src", fig2_tool, chain)


@pytest.fixture
def eav_source(fig2_tool: ReportingTool) -> GuavaSource:
    """A Figure 2 source with the Generic (EAV) layout."""
    chain = PatternChain(fig2_tool.naive_schemas(), [GenericPattern(["procedure"])])
    return GuavaSource("eav_src", fig2_tool, chain)


def enter_fig2_records(source: GuavaSource) -> None:
    """Three canonical records used across GUAVA tests."""
    session = source.session()
    session.enter(
        "procedure",
        {"hypoxia": True, "smoking": "Current", "frequency": 2.5, "alcohol": "Light"},
    )
    session.enter("procedure", {"smoking": "Never", "other": "n/a"})
    session.enter(
        "procedure",
        {
            "hypoxia": True,
            "surgeon_consulted": True,
            "smoking": "Previous",
            "frequency": 0.5,
            "alcohol": "rarely, socially",
        },
    )


@pytest.fixture(scope="session")
def world():
    """One clinical world shared by all read-only tests (expensive)."""
    return build_world(240, seed=11)


@pytest.fixture
def empty_db() -> Database:
    return Database("testdb")
