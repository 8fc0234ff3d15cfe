"""Reporting tools: versioned collections of forms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ControlError
from repro.relational.schema import TableSchema
from repro.ui.form import Form, naive_schema


@dataclass
class ReportingTool:
    """One vendor's data-capture application.

    A tool is a set of forms plus a version string; MultiClass's
    versioning support compares two versions of the same tool to decide
    which classifiers survive an upgrade.
    """

    name: str
    version: str
    forms: list[Form] = field(default_factory=list)
    vendor: str = ""

    def __post_init__(self) -> None:
        names = [form.name for form in self.forms]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ControlError(f"tool {self.name}: duplicate form names {sorted(duplicates)}")
        self._by_name = {form.name: form for form in self.forms}

    def form(self, name: str) -> Form:
        """Look up a form by name."""
        if name not in self._by_name:
            raise ControlError(f"tool {self.name} has no form {name!r}")
        return self._by_name[name]

    def form_names(self) -> list[str]:
        return [form.name for form in self.forms]

    def naive_schemas(self) -> dict[str, TableSchema]:
        """Naive schema per form: the in-memory layout the paper describes."""
        return {form.name: naive_schema(form) for form in self.forms}

    def control_count(self) -> int:
        """Total controls across all forms (H1 coverage metric)."""
        return sum(1 for form in self.forms for _ in form.iter_controls())

    def __repr__(self) -> str:
        return f"ReportingTool({self.name!r} v{self.version}, forms={self.form_names()})"
