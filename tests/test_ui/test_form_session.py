"""Tests for forms, naive schemas, tools, and data-entry sessions."""

import pytest

from repro.errors import (
    ControlError,
    DataEntryError,
    DisabledControlError,
    RequiredControlError,
)
from repro.relational import DataType
from repro.ui import (
    CheckBox,
    DataEntrySession,
    Form,
    GroupBox,
    NumericBox,
    RadioGroup,
    ReportingTool,
    TextBox,
    naive_schema,
)


class TestForm:
    def test_duplicate_control_names_rejected(self):
        with pytest.raises(ControlError):
            Form("f", "F", controls=[TextBox("a", "A"), TextBox("a", "A2")])

    def test_record_id_reserved(self):
        with pytest.raises(ControlError):
            Form("f", "F", controls=[TextBox("record_id", "Key")])

    def test_enablement_must_reference_known_controls(self):
        with pytest.raises(ControlError):
            Form(
                "f",
                "F",
                controls=[TextBox("a", "A", enabled_when="ghost = TRUE")],
            )

    def test_enablement_must_not_reference_layout_controls(self):
        # A group box holds no value, so the condition could never evaluate.
        with pytest.raises(ControlError, match="layout control"):
            Form(
                "f",
                "F",
                [GroupBox("g", "G"), NumericBox("x", "X", enabled_when="g IS NULL")],
            )

    def test_enablement_must_call_known_functions(self):
        with pytest.raises(ControlError, match="NOPE"):
            Form(
                "f",
                "F",
                [NumericBox("a", "A"), NumericBox("x", "X", enabled_when="NOPE(a) = 1")],
            )
        with pytest.raises(ControlError, match="ABS"):
            Form(
                "f",
                "F",
                [NumericBox("a", "A"), NumericBox("x", "X", enabled_when="ABS(a, a) = 1")],
            )

    def test_form_is_fixed_once_built(self, fig2_form):
        fig2_form.controls.append(NumericBox("late", "Late"))
        assert "late" not in [c.name for c in fig2_form.data_controls()]
        assert "late" not in naive_schema(fig2_form).column_names
        instance = DataEntrySession(ReportingTool("t", "1", [fig2_form])).open_form(
            "procedure"
        )
        assert "late" not in instance.values()
        with pytest.raises(ControlError):
            instance.set("late", 1)

    def test_enablement_graph_is_transitive_in_document_order(self):
        form = Form(
            "f",
            "F",
            controls=[
                CheckBox("a", "A"),
                GroupBox("g", "G", children=[NumericBox("c", "C", enabled_when="b = TRUE")]),
                CheckBox("b", "B", enabled_when="f.a = TRUE"),
                TextBox("d", "D"),
            ],
        )
        affected = form.enablement_graph.affected
        assert [name for name, _ in affected["a"]] == ["c", "b"]
        assert [name for name, _ in affected["b"]] == ["c"]
        assert affected["c"] == () and affected["d"] == ()

    def test_data_controls_excludes_groups(self, fig2_form):
        names = [c.name for c in fig2_form.data_controls()]
        assert "complications" not in names
        assert "hypoxia" in names

    def test_control_lookup(self, fig2_form):
        assert fig2_form.control("smoking").question.startswith("Does the patient")
        with pytest.raises(ControlError):
            fig2_form.control("nope")

    def test_enablement_parent(self, fig2_form):
        frequency = fig2_form.control("frequency")
        parent = fig2_form.enablement_parent(frequency)
        assert parent is not None and parent.name == "smoking"

    def test_no_enablement_parent(self, fig2_form):
        assert fig2_form.enablement_parent(fig2_form.control("hypoxia")) is None


class TestNaiveSchema:
    def test_one_column_per_data_control(self, fig2_form):
        schema = naive_schema(fig2_form)
        assert schema.column_names == (
            "record_id",
            "hypoxia",
            "surgeon_consulted",
            "other",
            "renal_failure",
            "smoking",
            "frequency",
            "alcohol",
        )

    def test_types_mirror_controls(self, fig2_form):
        schema = naive_schema(fig2_form)
        assert schema.column("hypoxia").dtype is DataType.BOOLEAN
        assert schema.column("frequency").dtype is DataType.FLOAT
        assert schema.column("smoking").dtype is DataType.TEXT

    def test_record_id_is_pk(self, fig2_form):
        schema = naive_schema(fig2_form)
        assert schema.primary_key == ("record_id",)


class TestReportingTool:
    def test_duplicate_form_names_rejected(self, fig2_form):
        with pytest.raises(ControlError):
            ReportingTool("t", "1", forms=[fig2_form, fig2_form])

    def test_form_lookup(self, fig2_tool):
        assert fig2_tool.form("procedure").name == "procedure"
        with pytest.raises(ControlError):
            fig2_tool.form("nope")

    def test_naive_schemas_per_form(self, fig2_tool):
        assert set(fig2_tool.naive_schemas()) == {"procedure"}

    def test_control_count(self, fig2_tool):
        assert fig2_tool.control_count() == 9  # 2 groups + 7 data controls


class TestSessionEnablement:
    def test_disabled_control_rejects_entry(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        instance = session.open_form("procedure")
        assert not instance.is_enabled("frequency")
        with pytest.raises(DisabledControlError):
            instance.set("frequency", 1.0)

    def test_enabling_answer_unlocks(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        instance = session.open_form("procedure")
        instance.set("smoking", "Current")
        assert instance.is_enabled("frequency")
        instance.set("frequency", 2.0)
        assert instance.value("frequency") == 2.0

    def test_disabling_clears_dependents(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        instance = session.open_form("procedure")
        instance.set("smoking", "Current")
        instance.set("frequency", 2.0)
        # A radio group cannot be un-answered in a real GUI, but setting it
        # to another option must keep dependents consistent; simulate a
        # cascade with a two-level form below instead.
        assert instance.value("frequency") == 2.0

    def test_cascading_clear(self):
        form = Form(
            "f",
            "F",
            controls=[
                CheckBox("a", "A"),
                CheckBox("b", "B", enabled_when="a = TRUE"),
                NumericBox("c", "C", enabled_when="b = TRUE"),
            ],
        )
        tool = ReportingTool("t", "1", forms=[form])
        session = DataEntrySession(tool)
        instance = session.open_form("f")
        instance.set("a", True)
        instance.set("b", True)
        instance.set("c", 5)
        instance.set("a", False)  # disables b, which disables c
        assert instance.value("b") is None
        assert instance.value("c") is None


class TestSessionSave:
    def test_defaults_applied(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        instance = session.open_form("procedure")
        assert instance.value("hypoxia") is False  # checkbox default
        assert instance.value("smoking") is None  # radio starts unselected

    def test_save_returns_naive_row_with_record_id(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        row = session.enter("procedure", {"smoking": "Never"})
        assert row["record_id"] == 1
        assert row["smoking"] == "Never"

    def test_record_ids_increment_per_form(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        first = session.enter("procedure", {})
        second = session.enter("procedure", {})
        assert (first["record_id"], second["record_id"]) == (1, 2)

    def test_required_enforced_when_enabled(self):
        form = Form("f", "F", controls=[TextBox("a", "A", required=True)])
        tool = ReportingTool("t", "1", forms=[form])
        session = DataEntrySession(tool)
        with pytest.raises(RequiredControlError):
            session.enter("f", {})

    def test_required_skipped_when_disabled(self):
        form = Form(
            "f",
            "F",
            controls=[
                CheckBox("gate", "Gate"),
                TextBox("a", "A", required=True, enabled_when="gate = TRUE"),
            ],
        )
        tool = ReportingTool("t", "1", forms=[form])
        session = DataEntrySession(tool)
        row = session.enter("f", {"gate": False})
        assert row["a"] is None

    def test_writer_callback_receives_rows(self, fig2_tool):
        captured = []
        session = DataEntrySession(
            fig2_tool, writer=lambda form, row: captured.append((form, row))
        )
        session.enter("procedure", {"smoking": "Never"})
        assert captured[0][0] == "procedure"
        assert captured[0][1]["smoking"] == "Never"

    def test_cannot_write_layout_control(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        instance = session.open_form("procedure")
        with pytest.raises(DataEntryError):
            instance.set("complications", "x")

    def test_saved_count(self, fig2_tool):
        session = DataEntrySession(fig2_tool)
        session.enter("procedure", {})
        session.enter("procedure", {})
        assert session.saved_count == 2
