"""Simulated data-entry sessions.

A :class:`DataEntrySession` plays the role of a clinician using the
reporting tool: it opens forms, fills controls (respecting enablement and
validation exactly as the real GUI would), and saves.  Saving produces a
*naive row* — the in-memory screen state — which is handed to a writer
callback; in a full source the writer is a design-pattern chain that lays
the row out in the physical database.

This is the substitution for the paper's Windows data-entry application:
it exercises the identical semantics (defaults, required fields, disabled
controls holding no data) that give g-tree nodes their meaning.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import (
    DataEntryError,
    DisabledControlError,
    RequiredControlError,
)
from repro.ui.form import RECORD_ID, EnablementCheck, Form, clear_disabled
from repro.ui.toolkit import ReportingTool

NaiveRow = dict[str, object]
Writer = Callable[[str, NaiveRow], None]


class FormInstance:
    """One open screen: current values plus enablement state.

    Between calls every control holding a value is enabled.  An answer can
    only disable the controls whose condition transitively reads it, so
    :meth:`set` re-checks just those (``Form.enablement_graph``); every
    other control was enabled or empty before the call, and nothing it
    reads has changed.
    """

    def __init__(self, form: Form, record_id: int):
        self.form = form
        self.record_id = record_id
        self._enablement = form.enablement_graph
        self._values = form.initial_values()
        self._settled = True

    # -- state ----------------------------------------------------------------

    def value(self, control_name: str) -> object:
        """The current value of a control."""
        if self.form.data_control(control_name) is None:
            self.form.control(control_name)  # unknown names raise ControlError
            raise DataEntryError(f"{control_name} stores no data")
        return self._values[control_name]

    def values(self) -> NaiveRow:
        """A copy of the current screen state (data controls only)."""
        return dict(self._values)

    def is_enabled(self, control_name: str) -> bool:
        """Evaluate the control's enablement condition over current values.

        A control with no condition is always enabled; a condition that
        evaluates to NULL (because its inputs are unanswered) disables.
        """
        self.form.control(control_name)  # unknown names raise ControlError
        enabled = self._enablement.conditions.get(control_name)
        return enabled is None or enabled(self._values)

    # -- interaction ------------------------------------------------------------

    def set(self, control_name: str, value: object) -> None:
        """Enter ``value`` into a control, as a user would.

        Raises :class:`DisabledControlError` when the control is currently
        disabled — the GUI would not let the user type there — and
        :class:`DataEntryError` on invalid values.  Changing an answer
        re-evaluates enablement; controls that become disabled are cleared,
        mirroring how reporting tools blank out dependent questions.
        """
        control = self.form.data_control(control_name)
        if control is None:
            self.form.control(control_name)  # unknown names raise ControlError
            raise DataEntryError(f"cannot enter data into {control_name}")
        enabled = self._enablement.conditions.get(control_name)
        if enabled is not None and not enabled(self._values):
            raise DisabledControlError(
                f"{self.form.name}.{control_name} is disabled"
            )
        self._values[control_name] = control.validate(value)
        self._clear_disabled(self._enablement.affected[control_name])

    def _clear_disabled(self, scope: tuple[EnablementCheck, ...]) -> None:
        # A walk that raised may have stopped before checking the rest of its
        # scope, so the walk after it covers every condition on the form.
        if not self._settled:
            scope = self._enablement.checks
        self._settled = False
        clear_disabled(self._values, scope)
        self._settled = True

    def save(self) -> NaiveRow:
        """Validate required fields and return the naive row.

        Required controls must be answered *when enabled*; a required
        control that is disabled is legitimately empty.
        """
        values = self._values
        conditions = self._enablement.conditions
        for control in self.form.data_controls():
            if not control.required:
                continue
            enabled = conditions.get(control.name)
            if (enabled is None or enabled(values)) and values[control.name] is None:
                raise RequiredControlError(
                    f"{self.form.name}.{control.name} is required"
                )
        row: NaiveRow = {RECORD_ID: self.record_id}
        row.update(self._values)
        return row


class DataEntrySession:
    """A clinician's session with a reporting tool.

    ``writer(form_name, naive_row)`` receives each saved screen; record ids
    are assigned sequentially per form, starting from ``first_record_id``.
    """

    def __init__(
        self,
        tool: ReportingTool,
        writer: Writer | None = None,
        first_record_id: int = 1,
    ):
        self.tool = tool
        self._writer = writer
        self._next_id: dict[str, int] = {
            form.name: first_record_id for form in tool.forms
        }
        self.saved_count = 0

    def open_form(self, form_name: str) -> FormInstance:
        """Open a fresh screen of ``form_name`` with defaults applied."""
        form = self.tool.form(form_name)
        record_id = self._next_id[form_name]
        self._next_id[form_name] = record_id + 1
        return FormInstance(form, record_id)

    def save(self, instance: FormInstance) -> NaiveRow:
        """Save a screen: validate, emit to the writer, return the row."""
        row = instance.save()
        if self._writer is not None:
            self._writer(instance.form.name, row)
        self.saved_count += 1
        return row

    def enter(self, form_name: str, values: Mapping[str, object]) -> NaiveRow:
        """Convenience: open a form, enter ``values`` in order, save.

        Values for currently disabled controls raise, exactly as
        interactive entry would; order your mapping so enabling answers
        come first (Python dicts preserve insertion order).
        """
        instance = self.open_form(form_name)
        for control_name, value in values.items():
            instance.set(control_name, value)
        return self.save(instance)
