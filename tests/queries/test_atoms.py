"""Unit tests for atoms: matching, unification, substitutions."""

import pytest

from repro.errors import QueryArityError
from repro.queries.atoms import (
    Atom,
    apply_substitution,
    atoms_constants,
    atoms_variables,
    compose,
    facts_by_predicate,
    ground_atom,
)
from repro.queries.terms import Constant, Variable


def atom(text_predicate, *args):
    return Atom.of(text_predicate, *args)


class TestAtomBasics:
    def test_of_constructor_coerces_terms(self):
        a = atom("studies", "?x", "Math")
        assert a.args == (Variable("x"), Constant("Math"))

    def test_arity(self):
        assert atom("ENR", "a", "b", "c").arity == 3

    def test_is_ground(self):
        assert atom("R", "a", "b").is_ground()
        assert not atom("R", "?x", "b").is_ground()

    def test_variables_and_constants(self):
        a = atom("R", "?x", "b", "?y")
        assert a.variables() == {Variable("x"), Variable("y")}
        assert a.constants() == {Constant("b")}

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("", (Constant("a"),))

    def test_str_rendering(self):
        assert str(atom("R", "?x", "Rome")) == "R(?x, Rome)"


class TestApply:
    def test_apply_substitution(self):
        a = atom("studies", "?x", "?y")
        result = a.apply({Variable("x"): Constant("A10")})
        assert result == atom("studies", "A10", "?y")

    def test_apply_leaves_constants(self):
        a = atom("studies", "?x", "Math")
        result = a.apply({Variable("x"): Constant("A10"), Variable("z"): Constant("B")})
        assert result == atom("studies", "A10", "Math")


class TestMatchesFact:
    def test_simple_match(self):
        pattern = atom("studies", "?x", "Math")
        fact = atom("studies", "A10", "Math")
        assert pattern.matches_fact(fact) == {Variable("x"): Constant("A10")}

    def test_constant_mismatch(self):
        pattern = atom("studies", "?x", "Math")
        assert pattern.matches_fact(atom("studies", "A10", "Science")) is None

    def test_predicate_mismatch(self):
        assert atom("R", "?x").matches_fact(atom("S", "a")) is None

    def test_repeated_variable_must_agree(self):
        pattern = atom("R", "?x", "?x")
        assert pattern.matches_fact(atom("R", "a", "a")) == {Variable("x"): Constant("a")}
        assert pattern.matches_fact(atom("R", "a", "b")) is None


class TestUnify:
    def test_unify_variables_and_constants(self):
        left = atom("R", "?x", "b")
        right = atom("R", "a", "?y")
        unifier = left.unify(right)
        assert unifier[Variable("x")] == Constant("a")
        assert unifier[Variable("y")] == Constant("b")

    def test_unify_fails_on_conflicting_constants(self):
        assert atom("R", "a", "b").unify(atom("R", "a", "c")) is None

    def test_unify_variable_chains(self):
        left = atom("R", "?x", "?x")
        right = atom("R", "?y", "a")
        unifier = left.unify(right)
        assert left.apply(unifier) == right.apply(unifier) == atom("R", "a", "a")

    def test_unify_different_predicates(self):
        assert atom("R", "?x").unify(atom("S", "?x")) is None


class TestHelpers:
    def test_ground_atom_rejects_variables(self):
        with pytest.raises(QueryArityError):
            ground_atom("R", "?x")

    def test_atoms_variables_and_constants(self):
        atoms = [atom("R", "?x", "a"), atom("S", "?y", "b")]
        assert atoms_variables(atoms) == {Variable("x"), Variable("y")}
        assert atoms_constants(atoms) == {Constant("a"), Constant("b")}

    def test_compose_substitutions(self):
        first = {Variable("x"): Variable("y")}
        second = {Variable("y"): Constant("a")}
        composed = compose(first, second)
        assert composed[Variable("x")] == Constant("a")
        assert composed[Variable("y")] == Constant("a")

    def test_facts_by_predicate(self):
        facts = [atom("R", "a"), atom("R", "b"), atom("S", "c")]
        index = facts_by_predicate(facts)
        assert len(index["R"]) == 2
        assert len(index["S"]) == 1

    def test_apply_substitution_over_sequence(self):
        atoms = (atom("R", "?x"), atom("S", "?x", "?y"))
        result = apply_substitution(atoms, {Variable("x"): Constant("a")})
        assert result == (atom("R", "a"), atom("S", "a", "?y"))

    def test_atom_sorting_with_mixed_terms(self):
        atoms = [atom("R", "?x", 1), atom("R", "a", "?y"), atom("Q", "z")]
        assert sorted(atoms)[0].predicate == "Q"
