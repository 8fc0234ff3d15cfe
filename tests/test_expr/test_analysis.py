"""Tests for static expression analysis (DNF, UCQ check, identifiers)."""

from repro.expr import (
    evaluate,
    is_union_of_conjunctions,
    parse,
    referenced_identifiers,
    to_dnf,
)
from repro.expr.ast import conjunction, disjunction


class TestReferencedIdentifiers:
    def test_collects_all(self):
        expr = parse("TumorX * TumorY > 2 AND TumorZ IS NOT NULL")
        assert referenced_identifiers(expr) == {"TumorX", "TumorY", "TumorZ"}

    def test_dotted_names(self):
        expr = parse("History.Smoking = 'Current'")
        assert referenced_identifiers(expr) == {"History.Smoking"}

    def test_functions_arguments_included(self):
        expr = parse("CONTAINS(interventions, 'Surgery')")
        assert referenced_identifiers(expr) == {"interventions"}

    def test_literal_only(self):
        assert referenced_identifiers(parse("1 + 2")) == set()


class TestAtoms:
    """The atoms :func:`to_dnf` leaves in its clauses: maximal
    connective-free subexpressions."""

    def test_conjunction_splits(self):
        (clause,) = to_dnf(parse("a = 1 AND b = 2"))
        assert [atom.to_source() for atom in clause] == ["(a = 1)", "(b = 2)"]

    def test_atom_with_arithmetic_stays_whole(self):
        expr = parse("a * b > 2")
        assert to_dnf(expr) == [[expr]]

    def test_is_conjunctive(self):
        assert len(to_dnf(parse("a = 1 AND b = 2 AND c = 3"))) == 1
        assert len(to_dnf(parse("a = 1 OR b = 2"))) == 2
        assert len(to_dnf(parse("NOT (a = 1 AND b = 2)"))) == 2


class TestDNF:
    def test_simple_or(self):
        assert len(to_dnf(parse("a = 1 OR b = 2"))) == 2

    def test_distribution(self):
        clauses = to_dnf(parse("(a = 1 OR b = 2) AND (c = 3 OR d = 4)"))
        assert len(clauses) == 4
        assert all(len(clause) == 2 for clause in clauses)

    def test_not_pushed_to_atoms(self):
        clauses = to_dnf(parse("NOT (a = 1 AND b < 2)"))
        assert len(clauses) == 2
        rendered = {clause[0].to_source() for clause in clauses}
        assert "(a != 1)" in rendered
        assert "(b >= 2)" in rendered

    def test_in_expands_to_union(self):
        clauses = to_dnf(parse("x IN (1, 2, 3)"))
        assert len(clauses) == 3

    def test_negated_in_stays_atom(self):
        clauses = to_dnf(parse("x NOT IN (1, 2)"))
        assert len(clauses) == 1

    def test_is_null_negation(self):
        clauses = to_dnf(parse("NOT (x IS NULL)"))
        assert clauses[0][0].to_source() == "(x IS NOT NULL)"

    def test_semantics_preserved(self):
        source = "(a = 1 OR b = 2) AND NOT (c = 3 AND d = 4)"
        original = parse(source)
        rebuilt = disjunction([conjunction(c) for c in to_dnf(original)])
        for env in _environments():
            assert evaluate(original, env) == evaluate(rebuilt, env), env


def _environments():
    values = (1, 2, 3, 4)
    for a in values[:2]:
        for b in values[:3]:
            for c in values[2:]:
                for d in values:
                    yield {"a": a, "b": b, "c": c, "d": d}


class TestUnionOfConjunctions:
    def test_every_figure5_guard_qualifies(self):
        guards = [
            "PacksPerDay = 0",
            "0 < PacksPerDay AND PacksPerDay < 2",
            "TumorX > 0 AND TumorY > 0 AND TumorZ > 0",
            "Procedure = Procedure AND SurgeryPerformed = TRUE",
        ]
        for guard in guards:
            assert is_union_of_conjunctions(parse(guard)), guard

    def test_disjunctive_condition_qualifies(self):
        assert is_union_of_conjunctions(parse("a = 1 OR (b = 2 AND c = 3)"))

    def test_clause_budget(self):
        # 2^8 clauses exceeds a budget of 100.
        parts = " AND ".join(f"(a{i} = 1 OR b{i} = 2)" for i in range(8))
        assert not is_union_of_conjunctions(parse(parts), max_clauses=100)

