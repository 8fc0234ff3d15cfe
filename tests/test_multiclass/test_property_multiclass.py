"""Property-based tests for MultiClass (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DomainError, ReproError
from repro.multiclass import (
    Classifier,
    Domain,
    Rule,
    format_classifier,
    parse_classifier,
)
from repro.multiclass.cleaning import CleaningRule, Quarantine, apply_rules

# -- strategies -----------------------------------------------------------------

_categories = ("None", "Light", "Moderate", "Heavy")


def _cutoffs():
    return st.lists(
        st.floats(min_value=0.125, max_value=10, allow_nan=False, width=32),
        min_size=3,
        max_size=3,
        unique=True,
    ).map(sorted)


def _threshold_classifier(cutoffs):
    low, mid, high = cutoffs
    return Classifier(
        name="habits_prop",
        target_entity="Procedure",
        target_attribute="Smoking",
        target_domain="habits",
        rules=[
            Rule.of("'None'", "packs = 0"),
            Rule.of("'Light'", f"packs > 0 AND packs < {low}"),
            Rule.of("'Moderate'", f"packs >= {low} AND packs < {mid}"),
            Rule.of("'Heavy'", f"packs >= {mid}"),
        ],
    )


_packs = st.one_of(
    st.floats(min_value=0, max_value=20, allow_nan=False, width=32),
    st.just(0),
    st.none(),
)


class TestClassifierProperties:
    @given(_cutoffs(), _packs)
    @settings(max_examples=200)
    def test_total_on_answered_inputs(self, cutoffs, packs):
        """Threshold classifiers classify every non-NULL input."""
        classifier = _threshold_classifier(cutoffs)
        domain = Domain.categorical("habits", list(_categories))
        label = classifier.classify({"packs": packs}, domain)
        if packs is None:
            assert label is None
        else:
            assert label in _categories

    @given(_cutoffs(), _packs)
    @settings(max_examples=200)
    def test_deterministic(self, cutoffs, packs):
        classifier = _threshold_classifier(cutoffs)
        env = {"packs": packs}
        assert classifier.classify(env) == classifier.classify(env)

    @given(_cutoffs(), st.floats(min_value=0.01, max_value=20, allow_nan=False))
    @settings(max_examples=200)
    def test_monotone_in_input(self, cutoffs, packs):
        """More packs never yields a *lighter* category."""
        classifier = _threshold_classifier(cutoffs)
        rank = {c: i for i, c in enumerate(_categories)}
        lighter = classifier.classify({"packs": packs})
        heavier = classifier.classify({"packs": packs * 1.5 + 0.01})
        assert rank[heavier] >= rank[lighter]

    @given(_cutoffs())
    @settings(max_examples=100)
    def test_language_roundtrip(self, cutoffs):
        classifier = _threshold_classifier(cutoffs)
        again = parse_classifier(format_classifier(classifier))
        assert again.rules == classifier.rules
        assert again.target == classifier.target

    @given(_cutoffs())
    @settings(max_examples=100)
    def test_guards_are_ucq(self, cutoffs):
        assert _threshold_classifier(cutoffs).is_union_of_conjunctions()


# -- compiled classifiers ---------------------------------------------------------

_literals = ("1", "0", "1.0", "2.5", "TRUE", "FALSE", "NULL", "'a'")
_atoms = st.one_of(
    st.just("TRUE"),
    st.builds(
        "{} {} {}".format,
        st.sampled_from(("x", "y")),
        st.sampled_from(("=", "!=", ">", "<=")),
        st.sampled_from(_literals),
    ),
    st.builds("{} IS NULL".format, st.sampled_from(("x", "y"))),
    st.builds("{} IS NOT NULL".format, st.sampled_from(("x", "y"))),
)
_guards = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds("({}) AND ({})".format, inner, inner),
        st.builds("({}) OR ({})".format, inner, inner),
        st.builds("NOT ({})".format, inner),
    ),
    max_leaves=4,
)
# 'zzz' and the raw inputs can fall outside the categorical domain.
_outputs = st.sampled_from(("'a'", "'b'", "'c'", "'zzz'", "x", "y"))
_rule_lists = st.lists(st.tuples(_outputs, _guards), min_size=1, max_size=5)
# bool, int and float values that compare (and hash) equal, NULL, a
# string, and one unhashable value.
_values = st.sampled_from((None, True, False, 0, 1, 1.0, 2, 2.5, "a", "b", [1]))


@st.composite
def _records(draw):
    record = {"x": draw(_values), "y": draw(_values)}
    if draw(st.booleans()):
        # ``y`` is then reachable only through the evaluator's dotted
        # suffix fallback.
        record["form.y"] = record.pop("y")
    return record


def _outcome(call, record):
    try:
        value = call(record)
    except ReproError as error:
        return ("error", type(error))
    return ("value", type(value), value)


def _classifier_of(rules):
    return Classifier(
        name="random",
        target_entity="Procedure",
        target_attribute="Answer",
        target_domain="abc",
        rules=[Rule.of(output, guard) for output, guard in rules],
    )


_abc = Domain.categorical("abc", ["a", "b", "c"])


class TestCompiledClassifierProperties:
    """``Classifier.compile(domain)(env) == Classifier.explain(env, domain)[0]``."""

    @given(
        _rule_lists,
        st.lists(_records(), min_size=1, max_size=8),
        st.sampled_from((None, _abc)),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_explain(self, rules, records, domain):
        classifier = _classifier_of(rules)
        compiled = classifier.compile(domain)
        # Every record twice: one closure serves a whole run.
        for record in records + records:
            expected = _outcome(lambda env: classifier.explain(env, domain)[0], record)
            assert _outcome(compiled, record) == expected

    def test_true_one_and_float_one_are_distinct_keys(self):
        classifier = _classifier_of([("'a'", "x = 1"), ("'b'", "TRUE")])
        compiled = classifier.compile(_abc)
        records = [{"x": True}, {"x": 1}, {"x": 1.0}, {"x": True}]
        assert [compiled(r) for r in records] == ["b", "a", "a", "b"]

    def test_suffix_resolved_records_classify(self):
        classifier = _classifier_of([("'a'", "y = 1"), ("'b'", "TRUE")])
        compiled = classifier.compile(_abc)
        assert compiled({"form.y": 1}) == "a"
        assert compiled({"form.y": 2}) == "b"
        assert compiled({"form.y": 1}) == "a"

    def test_unhashable_values_classify(self):
        classifier = _classifier_of([("'a'", "x IS NULL"), ("'b'", "TRUE")])
        compiled = classifier.compile(_abc)
        assert compiled({"x": [1]}) == "b"
        assert compiled({"x": None}) == "a"

    def test_out_of_domain_raises_on_every_call(self):
        classifier = _classifier_of([("'zzz'", "x = 1"), ("'a'", "TRUE")])
        compiled = classifier.compile(_abc)
        for _ in range(3):
            with pytest.raises(DomainError):
                compiled({"x": 1})
        assert compiled({"x": 2}) == "a"


_rows = st.lists(
    st.fixed_dictionaries(
        {"a": st.one_of(st.integers(-5, 5), st.none()), "b": st.booleans()}
    ),
    max_size=20,
)


class TestCleaningProperties:
    @given(_rows, st.integers(-5, 5))
    @settings(max_examples=150)
    def test_kept_plus_quarantined_is_total(self, rows, cutoff):
        quarantine = Quarantine()
        rules = [CleaningRule.of("r", f"a >= {cutoff}")]
        kept = apply_rules(rules, list(rows), "s", "record", quarantine)
        assert len(kept) + len(quarantine) == len(rows)

    @given(_rows, st.integers(-5, 5))
    @settings(max_examples=150)
    def test_idempotent(self, rows, cutoff):
        rules = [CleaningRule.of("r", f"a >= {cutoff}")]
        first = apply_rules(rules, list(rows), "s", "record", Quarantine())
        second = apply_rules(rules, list(first), "s", "record", Quarantine())
        assert first == second

    @given(_rows)
    @settings(max_examples=100)
    def test_null_never_discarded(self, rows):
        """An unanswered value must not satisfy a discard condition."""
        rules = [CleaningRule.of("r", "a > 0")]
        quarantine = Quarantine()
        kept = apply_rules(rules, list(rows), "s", "record", quarantine)
        null_rows = [row for row in rows if row["a"] is None]
        assert all(row in kept for row in null_rows)
