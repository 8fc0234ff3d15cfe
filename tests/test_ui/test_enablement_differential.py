"""Differential tests: scoped enablement against the full-form walk.

``FormInstance.set`` re-checks only the controls whose enablement
condition transitively reads the answered control.  The reference here is
the full-form fixed point it replaced: after every answer, walk every data
control in document order with the tree-walking :class:`Evaluator`,
clearing disabled ones until nothing changes.  On random forms the two must
agree on every value, every raised error type and the saved row.  A new
screen copies the form's cached initial screen; it must equal the uncached
defaults-plus-clearing walk, and no two screens share their values.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import DataEntryError, DisabledControlError, RequiredControlError
from repro.expr.evaluator import Evaluator
from repro.ui import (
    CheckBox,
    Form,
    FormInstance,
    GroupBox,
    NumericBox,
    RadioGroup,
    TextBox,
)
from repro.ui.form import RECORD_ID

_EVALUATOR = Evaluator()


class _FullWalk:
    """The full-form fixed point with the tree-walking evaluator."""

    def __init__(self, form: Form):
        self.form = form
        self.values = {
            control.name: control.validate(control.default)
            for control in self._data_controls()
        }
        self._clear_disabled()

    def _data_controls(self):
        return [control for control in self.form.iter_controls() if control.stores_data]

    def is_enabled(self, name: str) -> bool:
        control = self.form.control(name)
        if control.enabled_when is None:
            return True
        return _EVALUATOR.satisfied(control.enabled_when, self.values)

    def set(self, name: str, value: object) -> None:
        control = self.form.control(name)
        if not control.stores_data:
            raise DataEntryError(f"cannot enter data into {name}")
        if not self.is_enabled(name):
            raise DisabledControlError(name)
        self.values[name] = control.validate(value)
        self._clear_disabled()

    def _clear_disabled(self) -> None:
        changed = True
        while changed:
            changed = False
            for control in self._data_controls():
                if self.values[control.name] is not None and not self.is_enabled(
                    control.name
                ):
                    self.values[control.name] = None
                    changed = True

    def save(self) -> dict:
        for control in self._data_controls():
            if (
                control.required
                and self.is_enabled(control.name)
                and self.values[control.name] is None
            ):
                raise RequiredControlError(control.name)
        return {RECORD_ID: 1, **self.values}


def _outcome(action):
    """``("ok", result)``, or ``("raised", error type)``."""
    try:
        return ("ok", action())
    except Exception as exc:  # noqa: BLE001 - the error type is the outcome
        return ("raised", type(exc))


def _typed(values: dict) -> dict:
    # 1 == True == 1.0 in Python; the screen state must match in type too.
    return {name: (type(value), value) for name, value in values.items()}


# -- random forms ----------------------------------------------------------------

_KINDS = ("numeric", "check", "radio", "text")

_ATOMS = {
    "numeric": ["{r} > 3", "ABS({r}) >= 2", "COALESCE({r}, 0) = 0", "{r} = 1"],
    "check": ["{r} = TRUE", "{r}", "NOT {r}", "{r} = FALSE"],
    "radio": ["{r} = 'A'", "{r} != 'B'"],
    "text": ["{r} = 'A'", "{r} LIKE 'm%'"],
}
# Non-monotone and type-agnostic atoms, plus ones that raise on some types.
_ANY_ATOMS = ["{r} IS NULL", "{r} IS NOT NULL", "{r} IS NULL", "{r} > 'm'", "{r} + 1 > 2"]

_DEFAULTS = {
    "numeric": st.sampled_from([None, 0, 4]),
    "check": st.sampled_from([None, True, False]),
    "radio": st.sampled_from([None, "A", "B"]),
    "text": st.sampled_from([None, "A", "mm"]),
}


@st.composite
def _reference(draw, name: str) -> str:
    # Dotted references resolve by their leaf segment, like plain ones.
    prefix = draw(st.sampled_from(["", "", "screen.", "other."]))
    return prefix + name


@st.composite
def _atom(draw, name: str, kind: str) -> str:
    template = draw(st.sampled_from(_ATOMS[kind] + _ANY_ATOMS))
    return template.format(r=draw(_reference(name)))


@st.composite
def _condition(draw, refs: list[str], kinds: dict[str, str]) -> str:
    atoms = [draw(_atom(ref, kinds[ref])) for ref in refs]
    if len(atoms) == 2:
        if draw(st.booleans()):
            joiner = draw(st.sampled_from(["AND", "OR"]))
            condition = f"({atoms[0]}) {joiner} ({atoms[1]})"
        else:
            # One atom reading both controls.
            condition = f"{draw(_reference(refs[0]))} = {draw(_reference(refs[1]))}"
    else:
        condition = atoms[0]
    if draw(st.integers(0, 4)) == 0:
        condition = f"NOT ({condition})"
    return condition


def _control(name: str, kind: str, default: object, required: bool, condition):
    common = dict(default=default, required=required, enabled_when=condition)
    if kind == "numeric":
        return NumericBox(name, name, **common)
    if kind == "check":
        return CheckBox(name, name, **common)
    if kind == "radio":
        return RadioGroup(name, name, choices=["A", "B"], **common)
    return TextBox(name, name, **common)


@st.composite
def _forms(draw) -> Form:
    shape = draw(st.sampled_from(["chain", "diamond", "free"]))
    count = draw(st.integers(4 if shape == "diamond" else 2, 7))
    names = [f"c{i}" for i in range(count)]
    kinds = {name: draw(st.sampled_from(_KINDS)) for name in names}
    refs: dict[str, list[str]] = {}
    for i, name in enumerate(names):
        if shape == "chain":
            refs[name] = [names[i - 1]] if i else []
        elif shape == "diamond":
            refs[name] = (
                [] if i == 0
                else [names[1], names[-2]] if i == count - 1
                else [names[0]]
            )
        elif draw(st.booleans()):
            # Any control, earlier or later, including this one: cycles and
            # self-reference are allowed.
            refs[name] = draw(
                st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)
            )
        else:
            refs[name] = []
    controls = [
        _control(
            name,
            kinds[name],
            draw(_DEFAULTS[kinds[name]]),
            draw(st.integers(0, 3)) == 0,
            draw(_condition(refs[name], kinds)) if refs[name] else None,
        )
        for name in names
    ]
    # Nest a run of controls under a layout group so document order is a
    # pre-order walk, not list order.
    start = draw(st.integers(0, count))
    stop = draw(st.integers(start, count))
    grouped = GroupBox("grp", "Group", children=controls[start:stop])
    return Form("screen", "Screen", controls=[*controls[:start], grouped, *controls[stop:]])


_ANSWERS = {
    NumericBox: [None, 0, 1, 2, 5, -3],
    CheckBox: [None, True, False],
    RadioGroup: [None, "A", "B"],
    TextBox: [None, "A", "B", "m", "mm", "zz"],
}
# Wrong-typed answers, layout and unknown controls: refusals must match too.
_ANY_ANSWER = st.sampled_from([None, 1, 2.5, True, "A", "zz"])


def _actions(form: Form):
    answer = st.one_of(
        *(
            st.tuples(st.just(control.name), st.sampled_from(_ANSWERS[type(control)]))
            for control in form.data_controls()
        ),
        st.tuples(st.sampled_from(["grp", "ghost", "c0"]), _ANY_ANSWER),
    )
    return st.lists(answer, max_size=12)


class TestScopedWalkEqualsFullWalk:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_every_set_and_save_match(self, data):
        form = data.draw(_forms())
        reference = _outcome(lambda: _FullWalk(form))
        scoped = _outcome(lambda: FormInstance(form, 1))
        if reference[0] == "raised" or scoped[0] == "raised":
            assert scoped == reference
            return
        reference, scoped = reference[1], scoped[1]
        assert _typed(scoped.values()) == _typed(reference.values)
        for name, value in data.draw(_actions(form)):
            expected = _outcome(lambda: reference.set(name, value))
            assert _outcome(lambda: scoped.set(name, value)) == expected, (name, value)
            assert _typed(scoped.values()) == _typed(reference.values), (name, value)
            for control in form.iter_controls():
                assert _outcome(lambda: scoped.is_enabled(control.name)) == _outcome(
                    lambda: reference.is_enabled(control.name)
                ), control.name
        expected_row = _outcome(reference.save)
        row = _outcome(scoped.save)
        if expected_row[0] == "ok" and row[0] == "ok":
            assert _typed(row[1]) == _typed(expected_row[1])
        else:
            assert row == expected_row

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_cached_initial_screen_equals_the_walk(self, data):
        form = data.draw(_forms())
        reference = _outcome(lambda: _FullWalk(form).values)
        cached = _outcome(form.initial_values)
        if reference[0] == "raised" or cached[0] == "raised":
            assert cached == reference
            # A failed walk is not kept: every screen raises again.
            assert _outcome(lambda: FormInstance(form, 1)) == reference
            return
        assert _typed(cached[1]) == _typed(reference[1])
        first, second = FormInstance(form, 1), FormInstance(form, 2)
        assert first._values is not second._values
        for name, value in data.draw(_actions(form)):
            _outcome(lambda: first.set(name, value))
        # Answers on one screen reach neither another one nor the cache.
        assert _typed(second.values()) == _typed(reference[1])
        assert _typed(FormInstance(form, 3).values()) == _typed(reference[1])
        assert _typed(form.initial_values()) == _typed(reference[1])

    def test_walk_after_a_raised_walk_covers_the_form(self):
        # Answering ``a`` raises while checking ``p``, before ``q`` is
        # checked: ``q`` keeps its value though ``a`` now disables it.  The
        # next answer does not reach ``q`` through the graph, yet the full
        # walk clears it, so the scoped walk must too.
        form = Form(
            "screen",
            "Screen",
            controls=[
                NumericBox("a", "A"),
                TextBox("r", "R"),
                NumericBox("p", "P", enabled_when="a IS NULL OR a > r"),
                NumericBox("q", "Q", enabled_when="a IS NULL"),
            ],
        )
        reference, scoped = _FullWalk(form), FormInstance(form, 1)
        steps = [("p", 1), ("r", "x"), ("q", 1), ("a", 5), ("r", None)]
        for name, value in steps:
            expected = _outcome(lambda: reference.set(name, value))
            assert _outcome(lambda: scoped.set(name, value)) == expected
            assert _typed(scoped.values()) == _typed(reference.values)
        assert scoped.value("q") is None
