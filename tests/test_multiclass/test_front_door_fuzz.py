"""Front-door fuzzing of the expression and classifier languages.

Arbitrary text, token soup, and valid classifier sources with characters
inserted, deleted or replaced go through ``repro.expr.parser.parse``,
``parse_classifier`` and ``parse_entity_classifier``.  Each call either
returns or raises a :class:`repro.errors.ReproError` subclass; no other
exception may escape, since callers (the CLI, the study registry, the
ETL compiler) catch only the typed errors.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ParseError, ReproError
from repro.expr.compile import compile_predicate
from repro.expr.parser import MAX_DEPTH, parse
from repro.multiclass import parse_classifier, parse_entity_classifier

CLASSIFIER_TEXT = """
CLASSIFIER Habits_Cancer
TARGET Procedure.Smoking
DOMAIN habits4
FORM procedure
DESCRIPTION per cancer-study conversation 2002-05-03
RULE 'None' <- PacksPerDay = 0
RULE 'Light' <- PacksPerDay > 0 AND PacksPerDay < 2
RULE 'Moderate' <- PacksPerDay BETWEEN 2 AND 4.5 OR Brand IN ('a', NULL)
RULE UPPER(Kind) <- NOT (Kind LIKE '%x%') AND Note IS NOT NULL
RULE -1 <- Visit.Count * 2 % 3 != 1
"""

ENTITY_TEXT = """
ENTITY CLASSIFIER Relevant_Procedures
TARGET Procedure
FORM procedure
DESCRIPTION Only consider procedures where surgery was performed
WHERE SurgeryPerformed = TRUE AND Age NOT BETWEEN 1 AND 2e3
"""

FRONT_DOORS = (parse, parse_classifier, parse_entity_classifier)

#: Valid headers, so the text after them reaches the expression parser.
RULE_PREFIX = "CLASSIFIER c\nTARGET A.B\nDOMAIN d\nRULE "
WHERE_PREFIX = "ENTITY CLASSIFIER e\nTARGET A\nFORM f\nWHERE "

#: Fragments of both languages, so random sequences reach past the lexer.
TOKENS = (
    "(", ")", ",", ".", "'", "'a'", "''", "\n", "<-", "=", "!=", "<", "<=",
    ">", ">=", "+", "-", "*", "/", "%", "1", "2.5", "1e", "1e309", "x",
    "x.y", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN", "TRUE",
    "FALSE", "IIF", "UPPER", "RULE", "CLASSIFIER", "ENTITY", "TARGET",
    "DOMAIN", "FORM", "WHERE", "DESCRIPTION", "A.B",
)


def _only_typed_errors(front_door, text: str) -> None:
    try:
        front_door(text)
    except ReproError:
        pass


def _mutate(source: str, edits: list[tuple[int, int, str]]) -> str:
    text = source
    for position, kind, char in edits:
        at = position % (len(text) + 1)
        if kind == 0:
            text = text[:at] + char + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + char + text[at + 1 :]
    return text


edits = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 2),
        st.one_of(st.characters(), st.sampled_from("()',.<-=\n")),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(text=st.text())
@example(text="²")  # ``isdigit`` but not ``isdecimal``: ``int`` refuses it
@example(text="x = 1²")
def test_arbitrary_text(text):
    for front_door in FRONT_DOORS:
        _only_typed_errors(front_door, text)


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.sampled_from(TOKENS), max_size=30))
def test_token_soup(tokens):
    text = " ".join(tokens)
    for front_door in FRONT_DOORS:
        _only_typed_errors(front_door, text)
    _only_typed_errors(parse_classifier, RULE_PREFIX + text)
    _only_typed_errors(parse_entity_classifier, WHERE_PREFIX + text)


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from([CLASSIFIER_TEXT, ENTITY_TEXT]), edits=edits)
def test_mutated_classifier_sources(source, edits):
    text = _mutate(source, edits)
    for front_door in FRONT_DOORS:
        _only_typed_errors(front_door, text)


def test_the_unmutated_sources_parse():
    assert len(parse_classifier(CLASSIFIER_TEXT).rules) == 5
    assert parse_entity_classifier(ENTITY_TEXT).form == "procedure"


@pytest.mark.parametrize(
    "text",
    [
        "(" * 5000 + "1" + ")" * 5000,
        "NOT " * 5000 + "TRUE",
        "-" * 5000 + "1",
        "IIF(x = 1, 1, " * 2000 + "0" + ")" * 2000,
        "x IN (" * 3000 + "1" + ")" * 3000,
    ],
    ids=["parentheses", "not", "minus", "call", "in_list"],
)
def test_deep_nesting_raises_a_parse_error(text):
    with pytest.raises(ParseError):
        parse(text)
    with pytest.raises(ReproError):
        parse_entity_classifier(WHERE_PREFIX + text)


@pytest.mark.parametrize(
    "text",
    [
        " OR ".join(f"x = {i}" for i in range(3000)),
        " AND ".join(f"x = {i}" for i in range(3000)),
        " + ".join(["x"] * 3000) + " > 1",
    ],
    ids=["or_chain", "and_chain", "sum_chain"],
)
def test_long_flat_chains_raise_a_parse_error(text):
    """A flat chain parses in a loop but nests one AST level per term;
    past ``MAX_DEPTH`` it is refused before anything recurses over it."""
    with pytest.raises(ParseError, match="nests too deeply"):
        parse(text)
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_classifier(RULE_PREFIX + "'v' <- " + text)
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_entity_classifier(WHERE_PREFIX + text)


def test_chains_within_the_depth_limit_compile_and_round_trip():
    text = " OR ".join(f"x = {i}" for i in range(MAX_DEPTH - 2))
    expr = parse(text)
    assert parse(expr.to_source()) == expr
    assert compile_predicate(expr)({"x": MAX_DEPTH - 3}) is True
    rule = parse_classifier(RULE_PREFIX + "'v' <- " + text).rules[0]
    assert rule.guard == expr
