"""Atoms: predicate symbols applied to terms.

An atom ``R(t1, ..., tn)`` is the basic building block of databases
(ground atoms, i.e. facts), of conjunctive-query bodies, and of mapping
assertions.  Atoms are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Set, Tuple

from ..errors import QueryArityError
from .terms import Constant, Term, Variable, is_constant, is_variable, make_term

Substitution = Dict[Variable, Term]


@dataclass(frozen=True)
class Atom:
    """An atom ``predicate(args)`` over constants and variables."""

    predicate: str
    args: Tuple[Term, ...]

    def __post_init__(self):
        if not self.predicate:
            raise ValueError("atom predicate must be a non-empty string")
        object.__setattr__(self, "args", tuple(make_term(a) for a in self.args))

    def __hash__(self):
        # Atoms key fact indexes, provenance maps and memo layers on the
        # scoring hot path; the fields are deeply frozen, so the hash is
        # computed once and remembered (same discipline as Border).
        try:
            return object.__getattribute__(self, "_cached_hash")
        except AttributeError:
            value = hash((self.predicate, self.args))
            object.__setattr__(self, "_cached_hash", value)
            return value

    def __getstate__(self):
        # Never ship the cached hash across a process boundary: string
        # hashing is salted per process, so it would be stale on arrival
        # (see Border.__getstate__ for the same rule).
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        return state

    def sort_key(self):
        """Deterministic total order, robust to mixed term/value types."""
        return (self.predicate, len(self.args), tuple(a.sort_key() for a in self.args))

    def __lt__(self, other):
        if isinstance(other, Atom):
            return self.sort_key() < other.sort_key()
        return NotImplemented

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(predicate: str, *args) -> "Atom":
        """Convenience constructor: ``Atom.of('R', 'a', '?x')``."""
        return Atom(predicate, tuple(make_term(a) for a in args))

    # -- basic properties ---------------------------------------------

    @property
    def arity(self) -> int:
        """Number of arguments of the atom."""
        return len(self.args)

    def is_ground(self) -> bool:
        """Return ``True`` when every argument is a constant (a fact)."""
        return all(is_constant(a) for a in self.args)

    def variables(self) -> Set[Variable]:
        """The set of variables occurring in the atom."""
        return {a for a in self.args if is_variable(a)}

    def constants(self) -> Set[Constant]:
        """The set of constants occurring in the atom."""
        return {a for a in self.args if is_constant(a)}

    # -- operations ----------------------------------------------------

    def apply(self, substitution: Substitution) -> "Atom":
        """Apply a substitution to the atom's arguments."""
        new_args = tuple(
            substitution.get(a, a) if is_variable(a) else a for a in self.args
        )
        return Atom(self.predicate, new_args)

    def rename_predicate(self, predicate: str) -> "Atom":
        """Return a copy of the atom with a different predicate symbol."""
        return Atom(predicate, self.args)

    def matches_fact(self, fact: "Atom") -> Optional[Substitution]:
        """Try to match this (possibly non-ground) atom against a ground fact.

        Returns a substitution mapping this atom's variables to the
        fact's constants, or ``None`` if the atom does not match.  A
        variable occurring twice must match equal constants.
        """
        if fact.predicate != self.predicate or fact.arity != self.arity:
            return None
        substitution: Substitution = {}
        for mine, theirs in zip(self.args, fact.args):
            if is_constant(mine):
                if mine != theirs:
                    return None
            else:
                bound = substitution.get(mine)
                if bound is None:
                    substitution[mine] = theirs
                elif bound != theirs:
                    return None
        return substitution

    def unify(self, other: "Atom") -> Optional[Substitution]:
        """Most general unifier of two atoms, or ``None`` if none exists.

        Used by the PerfectRef ``reduce`` step and by CQ containment.
        The returned substitution maps variables (from either atom) to
        terms, with constants never rewritten.  It is resolved and
        idempotent: no variable it binds occurs in an image, so one
        application makes the two atoms equal.  (Unifying ``R(x, y)``
        with ``R(y, z)`` gives ``{x→z, y→z}``, not the triangular
        ``{x→y, y→z}``, which one application would only half apply.)
        """
        if self.predicate != other.predicate or self.arity != other.arity:
            return None
        substitution: Substitution = {}

        def resolve(term: Term) -> Term:
            while is_variable(term) and term in substitution:
                term = substitution[term]
            return term

        for left, right in zip(self.args, other.args):
            left, right = resolve(left), resolve(right)
            if left == right:
                continue
            if is_variable(left):
                substitution[left] = right
            elif is_variable(right):
                substitution[right] = left
            else:
                return None
        return {variable: resolve(variable) for variable in substitution}

    def __str__(self):
        rendered = ", ".join(
            str(a.value) if is_constant(a) else f"?{a.name}" for a in self.args
        )
        return f"{self.predicate}({rendered})"


def ground_atom(predicate: str, *values) -> Atom:
    """Build a ground atom (fact); raises if any value looks like a variable."""
    atom = Atom.of(predicate, *values)
    if not atom.is_ground():
        raise QueryArityError(f"fact {atom} contains variables")
    return atom


def atoms_variables(atoms: Iterable[Atom]) -> Set[Variable]:
    """Union of the variables of a collection of atoms."""
    result: Set[Variable] = set()
    for atom in atoms:
        result |= atom.variables()
    return result


def atoms_constants(atoms: Iterable[Atom]) -> Set[Constant]:
    """Union of the constants of a collection of atoms."""
    result: Set[Constant] = set()
    for atom in atoms:
        result |= atom.constants()
    return result


def apply_substitution(atoms: Sequence[Atom], substitution: Substitution) -> Tuple[Atom, ...]:
    """Apply *substitution* to every atom of a sequence."""
    return tuple(atom.apply(substitution) for atom in atoms)


def compose(first: Substitution, second: Substitution) -> Substitution:
    """Compose two substitutions: ``compose(f, s)(x) == s(f(x))``."""
    composed: Substitution = {}
    for variable, term in first.items():
        if is_variable(term):
            composed[variable] = second.get(term, term)
        else:
            composed[variable] = term
    for variable, term in second.items():
        if variable not in composed:
            composed[variable] = term
    return composed


def facts_by_predicate(facts: Iterable[Atom]) -> Dict[str, Set[Atom]]:
    """Index a collection of ground atoms by predicate symbol."""
    index: Dict[str, Set[Atom]] = {}
    for fact in facts:
        index.setdefault(fact.predicate, set()).add(fact)
    return index


def iter_constants_of_facts(facts: Iterable[Atom]) -> Iterator[Constant]:
    """Iterate over every constant occurring in a collection of facts."""
    for fact in facts:
        for arg in fact.args:
            if is_constant(arg):
                yield arg
