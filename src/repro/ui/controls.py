"""Control types for the declarative GUI model.

Each control carries the context information the paper's Figure 3 records
in g-tree nodes: "the exact wording of a control's question and answer
options, whether there is a default value, and whether the control is
required to be filled in" — plus the enablement condition that creates
parent/child g-tree edges (the frequency box enabled only once the smoking
question is answered).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import ControlError, DataEntryError, TypeMismatchError
from repro.expr.ast import Expression
from repro.expr.parser import parse
from repro.relational.types import DataType


@dataclass
class Control:
    """Base class for every on-screen control, including non-data ones.

    ``name`` is the programmatic identifier (unique within a form);
    ``question`` is the exact label text a clinician sees.
    """

    name: str
    question: str
    required: bool = False
    default: object = None
    enabled_when: Expression | None = None
    help_text: str = ""
    children: list["Control"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ControlError(
                f"control name {self.name!r} must be a valid identifier"
            )
        if isinstance(self.enabled_when, str):
            self.enabled_when = parse(self.enabled_when)

    # -- structure -----------------------------------------------------------

    @property
    def stores_data(self) -> bool:
        """True when this control contributes a column to the naive schema."""
        return self.data_type is not None

    @property
    def data_type(self) -> DataType | None:
        """The naive-schema column type, or None for layout-only controls."""
        return None

    @property
    def options(self) -> tuple[tuple[object, str], ...]:
        """(stored value, display label) pairs for choice controls."""
        return ()

    @property
    def allows_free_text(self) -> bool:
        return False

    def iter_tree(self) -> Iterator["Control"]:
        """This control and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    # -- data validation -----------------------------------------------------

    def validate(self, value: object) -> object:
        """Check and normalize an entered value; raise on invalid input."""
        if value is None:
            return None
        dtype = self.data_type
        if dtype is None:
            raise DataEntryError(f"{self.name} does not accept data")
        try:
            return dtype.coerce(value)
        except TypeMismatchError as exc:
            # The GUI rejects ill-typed keystrokes; surface that as a
            # data-entry problem, not a storage-layer one.
            raise DataEntryError(f"{self.name}: {exc}") from exc

    def describe(self) -> str:
        """Human-readable summary used in g-tree displays."""
        kind = type(self).__name__
        return f"{kind} {self.name!r}: {self.question!r}"


@dataclass
class GroupBox(Control):
    """A visual container; stores no data but appears in the g-tree.

    "There is a node in the g-tree for every control on the screen, even
    those that do not normally store data, such as group boxes."
    """


@dataclass
class TextBox(Control):
    """Free-text entry; ``multiline`` only affects display."""

    multiline: bool = False
    max_length: int | None = None

    @property
    def data_type(self) -> DataType:
        return DataType.TEXT

    @property
    def allows_free_text(self) -> bool:
        return True

    def validate(self, value: object) -> object:
        value = super().validate(value)
        if value is not None and self.max_length is not None and len(str(value)) > self.max_length:
            raise DataEntryError(
                f"{self.name}: text exceeds max length {self.max_length}"
            )
        return value


@dataclass
class NumericBox(Control):
    """Numeric entry with optional bounds; integer or float storage."""

    integer: bool = True
    minimum: float | None = None
    maximum: float | None = None

    @property
    def data_type(self) -> DataType:
        return DataType.INTEGER if self.integer else DataType.FLOAT

    def validate(self, value: object) -> object:
        value = super().validate(value)
        if value is None:
            return None
        if self.minimum is not None and value < self.minimum:
            raise DataEntryError(f"{self.name}: {value} below minimum {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise DataEntryError(f"{self.name}: {value} above maximum {self.maximum}")
        return value


@dataclass
class CheckBox(Control):
    """Boolean; unchecked is stored as False (not NULL) once saved."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.default is None:
            self.default = False

    @property
    def data_type(self) -> DataType:
        return DataType.BOOLEAN


@dataclass
class _ChoiceControl(Control):
    """Shared machinery for radio groups and drop-downs."""

    choices: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.choices:
            raise ControlError(f"{self.name}: choice control needs options")
        if len(set(self.choices)) != len(tuple(self.choices)):
            raise ControlError(f"{self.name}: duplicate options")
        self.choices = tuple(self.choices)

    @property
    def data_type(self) -> DataType:
        return DataType.TEXT

    @property
    def options(self) -> tuple[tuple[object, str], ...]:
        return tuple((choice, choice) for choice in self.choices)

    def validate(self, value: object) -> object:
        if value is None:
            return None
        text = str(value)
        if text not in self.choices and not self.allows_free_text:
            raise DataEntryError(
                f"{self.name}: {text!r} is not one of {list(self.choices)}"
            )
        return text


@dataclass
class RadioGroup(_ChoiceControl):
    """Mutually exclusive options.

    "The smoking node has an option for unselected because the radio list
    starts out with no option selected" — an unanswered radio group stores
    NULL, which is distinct from any option.
    """


@dataclass
class DropDown(_ChoiceControl):
    """Drop-down list, optionally allowing free text (Figure 3a: alcohol)."""

    free_text: bool = False

    @property
    def allows_free_text(self) -> bool:
        return self.free_text


@dataclass
class DatePicker(Control):
    """Calendar control storing an ISO date."""

    @property
    def data_type(self) -> DataType:
        return DataType.DATE


@dataclass
class CheckList(Control):
    """Multi-select list.

    The naive schema stores the selection as a ``;``-joined TEXT in a
    canonical (definition) order; the *Multivalue* design pattern may store
    it physically as child rows.
    """

    choices: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.choices:
            raise ControlError(f"{self.name}: check list needs options")
        self.choices = tuple(self.choices)

    @property
    def data_type(self) -> DataType:
        return DataType.TEXT

    @property
    def options(self) -> tuple[tuple[object, str], ...]:
        return tuple((choice, choice) for choice in self.choices)

    def validate(self, value: object) -> object:
        if value is None:
            return None
        if isinstance(value, str):
            selected = [part for part in value.split(";") if part]
        elif isinstance(value, (list, tuple, set)):
            selected = [str(part) for part in value]
        else:
            raise DataEntryError(f"{self.name}: cannot interpret {value!r} as selection")
        unknown = [part for part in selected if part not in self.choices]
        if unknown:
            raise DataEntryError(f"{self.name}: unknown option(s) {unknown}")
        ordered = [choice for choice in self.choices if choice in set(selected)]
        # An empty selection is "unanswered" (NULL), so the multivalue
        # pattern round-trips: no child rows <-> NULL, never "".
        return ";".join(ordered) if ordered else None

    @staticmethod
    def split(stored: object) -> list[str]:
        """Decode a stored ``;``-joined selection back to a list."""
        if stored is None or stored == "":
            return []
        return str(stored).split(";")
