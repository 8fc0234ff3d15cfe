"""Forms (screens) and the naive schema they imply.

"Informally, we have noticed that reporting tools maintain an in-memory
structure with a simple design: each screen of the tool corresponds to a
table, and each control corresponds to a column.  We call this design the
naïve schema for a tool."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from repro.errors import ControlError, EvaluationError
from repro.expr.analysis import referenced_identifiers
from repro.expr.ast import FunctionCall
from repro.expr.compile import CompiledPredicate, compile_predicate
from repro.expr.functions import default_registry
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.ui.controls import Control

#: Synthetic key column present in every naive-schema table: one row per
#: saved screen (e.g. one endoscopy report).
RECORD_ID = "record_id"

_FUNCTIONS = default_registry()

#: One enablement check: a data control's name and its compiled condition.
EnablementCheck = tuple[str, CompiledPredicate]


@dataclass(frozen=True)
class EnablementGraph:
    """A form's enablement edges (paper Figure 2: Smoking → Frequency).

    ``conditions`` maps each control that has an enablement condition to
    that condition, compiled.  ``checks`` holds the data controls' checks
    in document order.  ``affected[name]`` holds, in document order, the
    checks of every data control whose condition transitively reads
    ``name``: the only controls an answer to ``name`` can disable.
    """

    conditions: Mapping[str, CompiledPredicate]
    checks: tuple[EnablementCheck, ...]
    affected: Mapping[str, tuple[EnablementCheck, ...]]


@dataclass
class Form:
    """One screen of a reporting tool: a tree of controls.

    A form is fixed once built.  Its control index and data controls are
    derived from ``controls`` at construction, and its enablement graph and
    initial screen on first use; a control appended to ``controls`` later
    is unknown to the form (entering data into it raises
    :class:`ControlError`).
    """

    name: str
    title: str
    controls: list[Control] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ControlError(f"form name {self.name!r} must be a valid identifier")
        names = [control.name for control in self.iter_controls()]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ControlError(
                f"form {self.name}: duplicate control names {sorted(duplicates)}"
            )
        if RECORD_ID in names:
            raise ControlError(f"form {self.name}: {RECORD_ID!r} is reserved")
        self._by_name = {control.name: control for control in self.iter_controls()}
        self._data_controls = tuple(
            control for control in self._by_name.values() if control.stores_data
        )
        self._data_by_name = {control.name: control for control in self._data_controls}
        self._initial: dict[str, object] | None = None
        self._validate_enablement()

    def _validate_enablement(self) -> None:
        # A condition can only read data controls (a layout control holds no
        # value) and call built-in functions with a valid argument count;
        # anything else would first fail at data entry.
        data_names = {control.name for control in self._data_controls}
        for control in self.iter_controls():
            if control.enabled_when is None:
                continue
            for name in referenced_identifiers(control.enabled_when):
                leaf = name.split(".")[-1]
                if leaf not in data_names:
                    kind = "layout" if leaf in self._by_name else "unknown"
                    raise ControlError(
                        f"{self.name}.{control.name}: enablement references "
                        f"{kind} control {name!r}"
                    )
            for node in control.enabled_when.walk():
                if isinstance(node, FunctionCall):
                    try:
                        _FUNCTIONS.bind(node.name, len(node.args))
                    except EvaluationError as exc:
                        raise ControlError(
                            f"{self.name}.{control.name}: enablement calls "
                            f"{node.name}: {exc}"
                        ) from exc

    # -- traversal -----------------------------------------------------------

    def iter_controls(self) -> Iterator[Control]:
        """Every control on the form, pre-order."""
        for top in self.controls:
            yield from top.iter_tree()

    def data_controls(self) -> tuple[Control, ...]:
        """Controls that store data (one naive-schema column each)."""
        return self._data_controls

    def control(self, name: str) -> Control:
        """Look up a control by name."""
        if name not in self._by_name:
            raise ControlError(f"form {self.name} has no control {name!r}")
        return self._by_name[name]

    def data_control(self, name: str) -> Control | None:
        """The data control called ``name``; None for a layout or unknown name."""
        return self._data_by_name.get(name)

    def enablement_parent(self, control: Control) -> Control | None:
        """The control whose answer enables ``control``, if any.

        When the enablement condition references several controls the first
        reference (document order of the expression) is the g-tree parent;
        the rest remain recorded in the condition itself.
        """
        if control.enabled_when is None:
            return None
        for name in sorted(referenced_identifiers(control.enabled_when)):
            leaf = name.split(".")[-1]
            if leaf in self._by_name and leaf != control.name:
                return self._by_name[leaf]
        return None

    def initial_values(self) -> dict[str, object]:
        """The values a new screen opens with, as a dict of its own.

        Every data control's validated default, except that a control that
        opens disabled holds no data, even if it declares a default: the GUI
        greys it out before anything is stored.  Computed on first use and
        copied on every call after; a default or condition that raises
        raises on every call.
        """
        initial = self._initial
        if initial is None:
            initial = {
                control.name: control.validate(control.default)
                for control in self._data_controls
            }
            clear_disabled(initial, self.enablement_graph.checks)
            self._initial = initial
        return initial.copy()

    @cached_property
    def enablement_graph(self) -> EnablementGraph:
        """The form's enablement edges, derived once on first use."""
        conditions = {
            control.name: compile_predicate(control.enabled_when)
            for control in self._by_name.values()
            if control.enabled_when is not None
        }
        checks = tuple(
            (control.name, conditions[control.name])
            for control in self._data_controls
            if control.name in conditions
        )
        # readers[name]: the controls whose condition reads ``name`` directly.
        readers: dict[str, set[str]] = {}
        for control in self._data_controls:
            if control.enabled_when is not None:
                for name in referenced_identifiers(control.enabled_when):
                    readers.setdefault(name.split(".")[-1], set()).add(control.name)
        affected: dict[str, tuple[EnablementCheck, ...]] = {}
        for control in self._data_controls:
            reached: set[str] = set()
            frontier = [control.name]
            while frontier:
                for reader in readers.get(frontier.pop(), ()):
                    if reader not in reached:
                        reached.add(reader)
                        frontier.append(reader)
            affected[control.name] = tuple(
                check for check in checks if check[0] in reached
            )
        return EnablementGraph(conditions, checks, affected)


def clear_disabled(
    values: dict[str, object], scope: tuple[EnablementCheck, ...]
) -> None:
    """Clear each control of ``scope`` that holds a value but is disabled.

    Iterates to a fixed point: clearing one control may disable another.
    """
    changed = True
    while changed:
        changed = False
        for name, enabled in scope:
            if values[name] is not None and not enabled(values):
                values[name] = None
                changed = True


def naive_schema(form: Form) -> TableSchema:
    """The naive-schema table for one form: record key + column per control."""
    columns = [Column(RECORD_ID, DataType.INTEGER, nullable=False)]
    for control in form.data_controls():
        assert control.data_type is not None
        columns.append(Column(control.name, control.data_type, nullable=True))
    return TableSchema(form.name, tuple(columns), primary_key=(RECORD_ID,))
