"""Pins the structural fingerprints to the field-by-field reference.

``_fingerprint`` caches each type's dataclass field names and emits the
common scalar leaves inline.  Plan-cache keys, g-tree read shapes and
row-map keys are built from its output, so the strings must stay
byte-identical to the uncached walk below, which asks ``dataclasses`` for
every node, on a first call and on a repeat call.  Its "fixed" flag
(no mutable value below) decides whether a row map or a read shape is
kept.  ``referenced_identifiers`` is pinned to a recursive reference
walk likewise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

import repro.guava.query as guava_query_module
import repro.multiclass.study as study_module
import repro.relational.query as query_module
from repro.analysis import build_study1, build_study2
from repro.clinical import build_world
from repro.expr.analysis import referenced_identifiers
from repro.expr.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    Identifier,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.guava.query import GTreeQuery
from repro.guava.translate import translate_query
from repro.multiclass import Domain, Rule
from repro.multiclass.domain import DomainKind
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Coerce,
    Compute,
    DataType,
    Join,
    Project,
    Scan,
    Select,
    Sort,
    Union,
    optimize,
    plan_fingerprint,
)


def _reference(value: object, emit: Callable[[str], None]) -> None:
    """The fingerprint walk without the per-type field cache."""
    if is_dataclass(value) and not isinstance(value, type):
        emit(type(value).__name__)
        emit("(")
        for field in fields(value):
            _reference(getattr(value, field.name), emit)
            emit(",")
        emit(")")
    elif isinstance(value, tuple):
        emit("[")
        for item in value:
            _reference(item, emit)
            emit(",")
        emit("]")
    else:
        emit(f"{type(value).__name__}:{value!r};")


def _reference_text(value: object) -> str:
    parts: list[str] = []
    _reference(value, parts.append)
    return "".join(parts)


_COLUMNS = ("a", "b", "c")
_literals = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2, 2, allow_nan=False),
    st.text("xy%", max_size=3),
)


@st.composite
def _predicates(draw, depth=2):
    column = Identifier.of(draw(st.sampled_from(_COLUMNS)))
    kind = draw(st.integers(0, 4 if depth else 2))
    if kind == 0:
        op = draw(st.sampled_from(["=", "!=", "<", ">=", "LIKE"]))
        return BinaryOp(op, column, Literal(draw(_literals)))
    if kind == 1:
        return IsNull(column, negated=draw(st.booleans()))
    if kind == 2:
        items = tuple(Literal(draw(_literals)) for _ in range(draw(st.integers(1, 3))))
        return InList(column, items, negated=draw(st.booleans()))
    if kind == 3:
        return UnaryOp("NOT", draw(_predicates(depth - 1)))
    op = draw(st.sampled_from(["AND", "OR"]))
    return BinaryOp(op, draw(_predicates(depth - 1)), draw(_predicates(depth - 1)))


@st.composite
def _plans(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return Scan(draw(st.sampled_from(["t", "u"])))
    child = draw(_plans(depth - 1))
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return Select(child, draw(_predicates()))
    if kind == 1:
        kept = draw(st.sets(st.sampled_from(_COLUMNS), min_size=1))
        return Project(child, tuple(sorted(kept)))
    if kind == 2:
        return Compute(child, (("d", BinaryOp("+", Identifier.of("a"), Literal(1))),))
    if kind == 3:
        return Union((child, child))
    if kind == 4:
        return Sort(child, (("a", draw(st.booleans())),))
    if kind == 5:
        return Coerce(child, (("a", draw(st.sampled_from(list(DataType)))),))
    if kind == 6:
        spec = AggregateSpec(draw(st.sampled_from(["COUNT", "SUM", "MAX"])), "b", "agg")
        return Aggregate(child, ("a",), (spec,))
    how = draw(st.sampled_from(["inner", "left"]))
    return Join(child, draw(_plans(depth - 1)), (("a", "a"),), how)


class TestPlanFingerprint:
    @given(_plans())
    @settings(max_examples=300, deadline=None)
    def test_random_plans_match_the_reference(self, plan):
        assert plan_fingerprint(plan) == _reference_text(plan)

    def test_scalars_types_and_nested_tuples_match_the_reference(self):
        @dataclass(frozen=True)
        class Node:
            label: object
            children: tuple = ()

        values = [
            Node(1, (Node(True), Node(1.0), Node("1"), Node(None))),
            (Node, int, (1, (2, ())), frozenset({3})),
            Literal(Node),
        ]
        for value in values:
            parts: list[str] = []
            study_module._fingerprint(value, parts.append)
            assert "".join(parts) == _reference_text(value)


@st.composite
def _expressions(draw, depth=3):
    """Random ASTs over every node type, some sharing a subtree."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        if draw(st.booleans()):
            return Literal(draw(_literals))
        return Identifier.of(draw(st.sampled_from(["a", "b", "h.c"])))
    below = _expressions(depth - 1)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        op = draw(st.sampled_from(["+", "*", "=", "<", "LIKE", "AND", "OR"]))
        return BinaryOp(op, draw(below), draw(below))
    if kind == 1:
        return UnaryOp(draw(st.sampled_from(["-", "NOT"])), draw(below))
    if kind == 2:
        name = draw(st.sampled_from(["COALESCE", "IIF", "ABS"]))
        return FunctionCall(name, tuple(draw(st.lists(below, max_size=3))))
    if kind == 3:
        items = tuple(draw(st.lists(below, min_size=1, max_size=3)))
        return InList(draw(below), items, negated=draw(st.booleans()))
    if kind == 4:
        return IsNull(draw(below), negated=draw(st.booleans()))
    shared = draw(below)
    return BinaryOp("AND", shared, UnaryOp("NOT", shared))


_domains = st.one_of(
    st.builds(
        Domain.categorical,
        st.sampled_from(["d", "e"]),
        st.lists(st.text("xy", min_size=1, max_size=2), min_size=1, max_size=3, unique=True),
    ),
    st.builds(Domain.integer, st.just("n"), minimum=st.none() | st.integers(0, 2)),
    st.builds(Domain.real, st.just("r"), maximum=st.none() | st.floats(0, 1)),
    st.builds(Domain.boolean, st.just("flag")),
)


def _text(value: object) -> str:
    parts: list[str] = []
    query_module._fingerprint(value, parts.append)
    return "".join(parts)


def _fixed(value: object) -> bool:
    return query_module._fingerprint(value, lambda _text: None)


def _reference_identifiers(expr: Expression) -> set[str]:
    """The names in ``expr``, by recursion over ``children()`` (not ``walk()``)."""
    if isinstance(expr, Identifier):
        return {expr.name}
    return set().union(*map(_reference_identifiers, expr.children()))


class TestMemoizedFingerprint:
    @given(_expressions(), _expressions(), _domains)
    @settings(max_examples=300, deadline=None)
    def test_random_asts_rules_and_domains_match_the_reference(
        self, output, guard, domain
    ):
        rule = Rule(output, guard)
        for value in (output, guard, rule, domain, (rule, domain, (guard,))):
            expected = _reference_text(value)
            assert _text(value) == expected
            assert _text(value) == expected  # a repeat call, the same text

    def test_equal_literals_of_other_types_keep_their_own_texts(self):
        column = Identifier.of("a")
        for _ in range(2):  # first call, then a repeat call
            literals = [Literal(1), Literal(True), Literal(1.0)]
            texts = [_text(literal) for literal in literals]
            assert texts == [_reference_text(literal) for literal in literals]
            assert len(set(texts)) == 3
            for literal in literals:
                assert _text(literal) == _reference_text(literal)
            compared = [BinaryOp("=", column, literal) for literal in literals]
            texts = [_text(expr) for expr in compared + compared]
            assert texts == [_reference_text(expr) for expr in compared + compared]
            assert len(set(texts)) == 3

    def test_a_literal_over_a_mutable_value_is_walked_every_time(self):
        items = [1]
        literal = Literal(items)
        parent = BinaryOp("=", Identifier.of("a"), literal)
        rule = Rule(parent, Literal(True))
        assert _text(rule) == _reference_text(rule)
        items.append(2)
        assert _text(rule) == _reference_text(rule)
        assert "[1, 2]" in _text(rule)
        for value in (literal, parent, rule):
            assert not _fixed(value)
        assert _fixed(Rule(BinaryOp("=", Identifier.of("a"), Literal(1)), Literal(True)))
        # A domain over a list is walked every time too.
        categories = ["x"]
        domain = Domain("d", DomainKind.CATEGORICAL, "", categories)  # type: ignore[arg-type]
        assert _text(domain) == _reference_text(domain)
        categories.append("y")
        assert _text(domain) == _reference_text(domain)
        assert not _fixed(domain)
        assert _fixed(Domain.categorical("d", ["x", "y"]))


class TestMemoizedIdentifiers:
    @given(_expressions())
    @settings(max_examples=300, deadline=None)
    def test_identifier_sets_match_the_uncached_walk(self, expr):
        names = referenced_identifiers(expr)
        assert isinstance(names, frozenset)
        assert names == _reference_identifiers(expr)


_STUDIES = {
    "S1": build_study1,
    "S2-1y": lambda world: build_study2(world, "1y"),
    "S2-10y": lambda world: build_study2(world, "10y"),
    "S2-ever": lambda world: build_study2(world, "ever"),
}


@pytest.fixture(scope="module")
def world():
    return build_world(30, seed=11)


@pytest.mark.parametrize("label", sorted(_STUDIES))
class TestStudyKeys:
    """Row-map keys, read shapes and read plans of the paper's studies."""

    def _reads(self, world, label):
        study = _STUDIES[label](world)
        for entity in study.entities_in_play():
            for binding in study.bindings:
                ec = binding.entity_classifiers[entity]
                query = GTreeQuery(binding.source.gtree(ec.form)).where(ec.condition)
                yield study, binding, entity, ec, query

    def test_row_map_keys_match_the_reference(self, world, label, monkeypatch):
        reads = list(self._reads(world, label))
        keys = [
            study.row_map(binding, entity, ec.parent_link).key
            for study, binding, entity, ec, _ in reads
        ]
        monkeypatch.setattr(study_module, "_fingerprint", _reference)
        # The shared bindings keep their maps: drop them, so the reference
        # walk makes every key again.
        for _, binding, _, _, _ in reads:
            binding.binding.row_maps.clear()
        assert keys == [
            study.row_map(binding, entity, ec.parent_link).key
            for study, binding, entity, ec, _ in reads
        ]

    def test_read_shapes_match_the_reference(self, world, label, monkeypatch):
        reads = list(self._reads(world, label))
        shapes = [binding.source._shape(query) for _, binding, _, _, query in reads]
        assert None not in shapes
        # A query keeps its shape text, so the reference reads new queries.
        monkeypatch.setattr(guava_query_module, "_fingerprint", _reference)
        assert shapes == [
            binding.source._shape(query)
            for _, binding, _, _, query in self._reads(world, label)
        ]

    def test_read_plans_match_the_reference(self, world, label):
        for _, binding, _, _, query in self._reads(world, label):
            plan = translate_query(query, binding.source.chain)
            for candidate in (plan, optimize(plan, binding.source.db)):
                assert plan_fingerprint(candidate) == _reference_text(candidate)
