"""Evaluation of conjunctive queries over sets of ground facts.

Evaluation is homomorphism search: find every assignment of the query's
variables to constants such that each body atom maps to a fact.  The
implementation is a backtracking join with two standard optimisations:

* atoms are processed most-constrained-first (fewest candidate facts,
  preferring atoms that share variables with those already joined);
* facts are indexed by predicate once per fact set.

These CQs are small (explanation queries have a handful of atoms) and
the fact sets are either borders (tiny) or virtual ABoxes (thousands of
facts), so a tuned nested-loop join is entirely adequate and keeps the
code dependency-free and easy to audit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import UnsafeQueryError
from .atoms import Atom, Substitution, facts_by_predicate
from .cq import ConjunctiveQuery
from .terms import Constant, Term, Variable, is_constant, is_variable

_EMPTY: FrozenSet[Atom] = frozenset()


class FactIndex:
    """A predicate- and constant-indexed, reusable view over ground facts.

    Two indexes are maintained: facts by predicate, and facts by
    ``(predicate, argument position, constant)``.  The second one makes
    lookups for partially bound atoms (the common case during
    ``J``-matching, where the answer tuple is already substituted into
    the query) proportional to the number of actually matching facts.

    The index is immutable once built: :meth:`candidates` hands out
    frozenset views of the internal buckets, so callers can never corrupt
    the index by mutating a returned set (and no defensive copy is paid
    on the hot path).
    """

    def __init__(self, facts: Iterable[Atom]):
        self._facts: FrozenSet[Atom] = frozenset(facts)
        self._by_predicate: Dict[str, FrozenSet[Atom]] = {
            predicate: frozenset(bucket)
            for predicate, bucket in facts_by_predicate(self._facts).items()
        }
        by_position: Dict[tuple, Set[Atom]] = {}
        for fact in self._facts:
            for position, argument in enumerate(fact.args):
                by_position.setdefault(
                    (fact.predicate, position, argument), set()
                ).add(fact)
        self._by_position: Dict[tuple, FrozenSet[Atom]] = {
            key: frozenset(bucket) for key, bucket in by_position.items()
        }

    @property
    def facts(self) -> FrozenSet[Atom]:
        return self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def candidates(self, atom: Atom) -> FrozenSet[Atom]:
        """Facts that could match *atom*, using the most selective index.

        The returned frozenset is a live view of the index bucket, not a
        copy; it is immutable by construction.
        """
        best = self._by_predicate.get(atom.predicate)
        if best is None:
            return _EMPTY
        for position, argument in enumerate(atom.args):
            if is_constant(argument):
                narrowed = self._by_position.get((atom.predicate, position, argument))
                if narrowed is None:
                    return _EMPTY
                if len(narrowed) < len(best):
                    best = narrowed
        return best

    def predicates(self) -> Set[str]:
        return set(self._by_predicate)


def _order_atoms(query: ConjunctiveQuery, index: FactIndex) -> List[Atom]:
    """Greedy join order: repeatedly pick the cheapest connected atom."""
    remaining = list(query.body)
    ordered: List[Atom] = []
    bound_vars: Set[Variable] = set()
    # Candidate counts are selection-independent, so compute them once up
    # front instead of re-probing the index on every greedy iteration.
    candidate_count = {atom: len(index.candidates(atom)) for atom in remaining}

    def cost(atom: Atom) -> Tuple[int, int]:
        connected = bool(atom.variables() & bound_vars) or not bound_vars
        return (0 if connected else 1, candidate_count[atom])

    while remaining:
        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best)
        bound_vars |= best.variables()
    return ordered


def iter_matches(
    query: ConjunctiveQuery,
    facts: Iterable[Atom],
    index: Optional[FactIndex] = None,
) -> Iterator[Tuple[Substitution, Tuple[Atom, ...]]]:
    """Yield every homomorphism with the facts its body atoms map to.

    The facts are the body's image under the homomorphism (in join
    order): the *witness* of the answer it produces.
    """
    index = index if index is not None else FactIndex(facts)
    ordered = _order_atoms(query, index)

    def extend(
        position: int, substitution: Substitution, image: Tuple[Atom, ...]
    ) -> Iterator[Tuple[Substitution, Tuple[Atom, ...]]]:
        if position == len(ordered):
            yield dict(substitution), image
            return
        atom = ordered[position].apply(substitution)
        for fact in index.candidates(atom):
            local = atom.matches_fact(fact)
            if local is None:
                continue
            merged = dict(substitution)
            merged.update(local)
            yield from extend(position + 1, merged, image + (fact,))

    yield from extend(0, {}, ())


def iter_homomorphisms(
    query: ConjunctiveQuery,
    facts: Iterable[Atom],
    index: Optional[FactIndex] = None,
) -> Iterator[Substitution]:
    """Yield every homomorphism from the query body into the fact set."""
    for substitution, _image in iter_matches(query, facts, index):
        yield substitution


def evaluate(
    query: ConjunctiveQuery,
    facts: Iterable[Atom],
    index: Optional[FactIndex] = None,
) -> Set[Tuple[Constant, ...]]:
    """Evaluate a CQ, returning the set of answer tuples.

    For a boolean query the result is ``{()}`` if the query is satisfied
    and ``set()`` otherwise.  An unsafe query (a head variable that does
    not occur in the body, possible for queries constructed outside the
    validating :class:`~repro.queries.cq.ConjunctiveQuery` constructor)
    raises :class:`~repro.errors.UnsafeQueryError` instead of leaking a
    bare ``KeyError`` from the homomorphism lookup.
    """
    body_variables = query.variables()
    missing = [v for v in query.head if v not in body_variables]
    if missing:
        rendered = ", ".join(v.name for v in missing)
        raise UnsafeQueryError(
            f"cannot evaluate unsafe query {query}: head variables "
            f"{{{rendered}}} do not occur in the body"
        )
    answers: Set[Tuple[Constant, ...]] = set()
    for homomorphism in iter_homomorphisms(query, facts, index):
        answers.add(tuple(homomorphism[v] for v in query.head))
    return answers


def holds(
    query: ConjunctiveQuery,
    facts: Iterable[Atom],
    index: Optional[FactIndex] = None,
) -> bool:
    """``True`` iff the query has at least one answer over the facts."""
    for _ in iter_homomorphisms(query, facts, index):
        return True
    return False


def contains_tuple(
    query: ConjunctiveQuery,
    answer: Sequence[Constant],
    facts: Iterable[Atom],
    index: Optional[FactIndex] = None,
) -> bool:
    """Check whether a specific tuple is an answer to the query.

    This is the primitive the explanation framework uses constantly: the
    ``J``-matching test of Definition 3.4 asks whether the tuple ``t`` is
    a (certain) answer over the border.  Binding the answer variables
    before evaluation keeps the check cheap.
    """
    if len(answer) != query.arity:
        return False
    binding: Substitution = {}
    for variable, constant in zip(query.head, answer):
        bound = binding.get(variable)
        if bound is not None and bound != constant:
            return False
        binding[variable] = constant
    bound_body = tuple(atom.apply(binding) for atom in query.body)
    index = index if index is not None else FactIndex(facts)
    if not _unary_consistent(bound_body, index):
        return False
    # Re-order the bound body most-constrained-first; for large queries (e.g.
    # canonical product queries used by the separability check) the original
    # atom order can be pathological for backtracking.
    ordered_body = _order_bound_atoms(bound_body, index)

    def extend(position: int, substitution: Substitution) -> bool:
        if position == len(ordered_body):
            return True
        atom = ordered_body[position].apply(substitution)
        for fact in index.candidates(atom):
            local = atom.matches_fact(fact)
            if local is None:
                continue
            merged = dict(substitution)
            merged.update(local)
            if extend(position + 1, merged):
                return True
        return False

    return extend(0, {})


def _unary_consistent(atoms: Sequence[Atom], index: FactIndex) -> bool:
    """Cheap arc-consistency prefilter for boolean homomorphism checks.

    For every variable, intersect the values it could take according to
    each atom it occurs in (looking only at facts matching that atom's
    predicate and constants).  An empty candidate set proves that no
    homomorphism exists, which lets very large queries (e.g. canonical
    product queries) fail fast instead of backtracking exhaustively.
    """
    domains: Dict[Variable, Set] = {}
    for atom in atoms:
        facts = index.candidates(atom)
        if not facts:
            return False
        for position, argument in enumerate(atom.args):
            if not is_variable(argument):
                continue
            values = {fact.args[position] for fact in facts}
            known = domains.get(argument)
            if known is None:
                domains[argument] = values
            else:
                known &= values
                if not known:
                    return False
    return True


def _order_bound_atoms(atoms: Sequence[Atom], index: FactIndex) -> List[Atom]:
    """Greedy connected, most-constrained-first order for a bound atom list."""
    remaining = list(atoms)
    ordered: List[Atom] = []
    bound_vars: Set[Variable] = set()
    candidate_count = {atom: len(index.candidates(atom)) for atom in remaining}

    def cost(atom: Atom):
        connected = bool(atom.variables() & bound_vars) or not bound_vars or not atom.variables()
        return (0 if connected else 1, candidate_count[atom])

    while remaining:
        best = min(remaining, key=cost)
        remaining.remove(best)
        ordered.append(best)
        bound_vars |= best.variables()
    return ordered
