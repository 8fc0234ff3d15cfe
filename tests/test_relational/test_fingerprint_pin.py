"""Pins the structural fingerprints to the field-by-field reference.

``_fingerprint`` caches each type's dataclass field names.  Plan-cache
keys, g-tree read shapes and row-map keys are built from its output, so
the strings must stay byte-identical to the uncached walk below, which
asks ``dataclasses`` for every node.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

import repro.guava.source as source_module
import repro.multiclass.study as study_module
from repro.analysis import build_study1, build_study2
from repro.clinical import build_world
from repro.expr.ast import BinaryOp, Identifier, InList, IsNull, Literal, UnaryOp
from repro.guava.query import GTreeQuery
from repro.guava.translate import translate_query
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Compute,
    Distinct,
    Join,
    Limit,
    Project,
    Scan,
    Select,
    Sort,
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
        return Distinct(child)
    if kind == 4:
        return Sort(child, (("a", draw(st.booleans())),))
    if kind == 5:
        return Limit(child, draw(st.integers(0, 5)))
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
        assert keys == [
            study.row_map(binding, entity, ec.parent_link).key
            for study, binding, entity, ec, _ in reads
        ]

    def test_read_shapes_match_the_reference(self, world, label, monkeypatch):
        reads = list(self._reads(world, label))
        shapes = [binding.source._shape(query) for _, binding, _, _, query in reads]
        assert None not in shapes
        monkeypatch.setattr(source_module, "_fingerprint", _reference)
        assert shapes == [
            binding.source._shape(query) for _, binding, _, _, query in reads
        ]

    def test_read_plans_match_the_reference(self, world, label):
        for _, binding, _, _, query in self._reads(world, label):
            plan = translate_query(query, binding.source.chain)
            for candidate in (plan, optimize(plan, binding.source.db)):
                assert plan_fingerprint(candidate) == _reference_text(candidate)
