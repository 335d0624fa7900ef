"""Perfect reformulation (PerfectRef) of CQs/UCQs under DL-Lite_R TBoxes.

Query answering in OBDM is a logical inference task: the certain answers
must take the ontology axioms into account.  For DL-Lite this can be
done entirely at the query level: the *perfect rewriting* of a CQ ``q``
w.r.t. a TBox ``O`` is a UCQ ``q_r`` such that, for every ABox ``A``,
the certain answers of ``q`` over ``<O, A>`` equal the plain evaluation
of ``q_r`` over ``A``.  This module implements the classic PerfectRef
algorithm (Calvanese et al., "Tractable reasoning and efficient query
answering in description logics: the DL-Lite family"):

repeat until no new query is produced:
  (a) **atom rewriting** — replace an atom ``g`` with ``gr(g, I)`` for
      every positive inclusion ``I`` applicable to ``g``;
  (b) **reduce** — unify two unifiable atoms of a query; the unification
      can turn bound terms into unbound ones and enable step (a).

The notion of *bound* term is the standard one: answer variables, shared
variables and constants are bound; a variable with a single occurrence
is unbound and is treated like the anonymous term ``_``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..dl.ontology import Ontology
from ..dl.reasoner import Reasoner
from ..dl.syntax import (
    AtomicConcept,
    AtomicRole,
    BasicConcept,
    ConceptInclusion,
    ExistentialRestriction,
    InverseRole,
    Role,
    RoleInclusion,
)
from ..errors import CertainAnswerError
from ..queries.atoms import Atom, Substitution, apply_substitution
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Term, Variable, VariableFactory, is_variable
from ..queries.ucq import UnionOfConjunctiveQueries


class PerfectRefRewriter:
    """Rewrites ontology queries into UCQs that can be evaluated directly."""

    def __init__(self, ontology: Ontology, max_queries: int = 10_000):
        self.ontology = ontology
        self.max_queries = max_queries
        self._concept_inclusions = ontology.positive_concept_inclusions()
        self._role_inclusions = ontology.positive_role_inclusions()

    # -- public API ----------------------------------------------------------

    def rewrite(self, query: Union[ConjunctiveQuery, UnionOfConjunctiveQueries]) -> UnionOfConjunctiveQueries:
        """Compute the perfect rewriting of a CQ or UCQ as a UCQ."""
        if isinstance(query, ConjunctiveQuery):
            disjuncts = [query]
            name = query.name
        else:
            disjuncts = list(query.disjuncts)
            name = query.name

        produced: Dict[Tuple, ConjunctiveQuery] = {}
        frontier: List[ConjunctiveQuery] = []
        for disjunct in disjuncts:
            self.validate(disjunct)
            signature = disjunct.signature()
            if signature not in produced:
                produced[signature] = disjunct
                frontier.append(disjunct)

        while frontier:
            current = frontier.pop()
            for candidate in self._expand(current):
                signature = candidate.signature()
                if signature in produced:
                    continue
                if len(produced) >= self.max_queries:
                    raise CertainAnswerError(
                        f"perfect rewriting exceeded {self.max_queries} disjuncts; "
                        "the ontology/query combination is too prolific"
                    )
                produced[signature] = candidate
                frontier.append(candidate)

        # Deterministic disjunct order (sorted by canonical signature):
        # union semantics are order-independent, but the SQL pushdown
        # compiles the disjunct sequence to one statement text, and a
        # stable text keeps sqlite3's prepared-statement cache and the
        # pushdown memo effective across runs.
        ordered = sorted(produced.values(), key=lambda cq: cq.signature())
        return UnionOfConjunctiveQueries(tuple(ordered), name).deduplicated()

    # -- validation ----------------------------------------------------------

    def validate(self, query: ConjunctiveQuery) -> None:
        """Raise :class:`CertainAnswerError` unless every body atom of *query*
        uses an ontology predicate with its declared arity."""
        for atom in query.body:
            if not self.ontology.has_predicate(atom.predicate):
                raise CertainAnswerError(
                    f"query atom {atom} uses predicate {atom.predicate!r} that is not "
                    f"in the ontology vocabulary"
                )
            expected = self.ontology.arity_of(atom.predicate)
            if atom.arity != expected:
                raise CertainAnswerError(
                    f"query atom {atom} has arity {atom.arity}, but ontology predicate "
                    f"{atom.predicate!r} has arity {expected}"
                )

    # -- expansion steps ---------------------------------------------------------

    def _expand(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        yield from self._atom_rewritings(query)
        yield from self._reductions(query)

    def _atom_rewritings(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        factory = VariableFactory(query.variables())
        for position, atom in enumerate(query.body):
            for replacement in self._applicable_replacements(query, atom, factory):
                new_body = list(query.body)
                new_body[position] = replacement
                yield query.with_body(tuple(new_body))

    def _applicable_replacements(
        self, query: ConjunctiveQuery, atom: Atom, factory: VariableFactory
    ) -> Iterable[Atom]:
        predicate = atom.predicate
        if predicate in self.ontology.concept_names and atom.arity == 1:
            term = atom.args[0]
            target: BasicConcept = AtomicConcept(predicate)
            for inclusion in self._concept_inclusions:
                if inclusion.rhs == target:
                    yield self._concept_atom(inclusion.lhs, term, factory)
        elif predicate in self.ontology.role_names and atom.arity == 2:
            first, second = atom.args
            first_bound = query.is_bound(first)
            second_bound = query.is_bound(second)
            role = AtomicRole(predicate)
            # Concept inclusions with ∃P (resp. ∃P⁻) on the right are
            # applicable when the second (resp. first) argument is unbound.
            if not second_bound:
                target = ExistentialRestriction(role)
                for inclusion in self._concept_inclusions:
                    if inclusion.rhs == target:
                        yield self._concept_atom(inclusion.lhs, first, factory)
            if not first_bound:
                target = ExistentialRestriction(role.inverse())
                for inclusion in self._concept_inclusions:
                    if inclusion.rhs == target:
                        yield self._concept_atom(inclusion.lhs, second, factory)
            # Role inclusions are applicable regardless of boundness.
            for inclusion in self._role_inclusions:
                rhs = inclusion.rhs
                if isinstance(rhs, (AtomicRole, InverseRole)):
                    if rhs == role:
                        yield self._role_atom(inclusion.lhs, first, second)
                    elif rhs == role.inverse():
                        yield self._role_atom(inclusion.lhs, second, first)

    def _concept_atom(self, concept: BasicConcept, term: Term, factory: VariableFactory) -> Atom:
        """Atom asserting membership of *term* in a basic concept."""
        if isinstance(concept, AtomicConcept):
            return Atom(concept.name, (term,))
        role = concept.role
        fresh = factory.fresh()
        if isinstance(role, InverseRole):
            return Atom(role.role.name, (fresh, term))
        return Atom(role.name, (term, fresh))

    def _role_atom(self, role: Role, first: Term, second: Term) -> Atom:
        """Atom asserting that ``(first, second)`` is in *role*."""
        if isinstance(role, InverseRole):
            return Atom(role.role.name, (second, first))
        return Atom(role.name, (first, second))

    # -- reduce step -------------------------------------------------------------

    def _reductions(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        body = query.body
        for i in range(len(body)):
            for j in range(i + 1, len(body)):
                unifier = body[i].unify(body[j])
                if unifier is None:
                    continue
                try:
                    reduced = self._apply_reduce(query, i, j, unifier)
                except CertainAnswerError:
                    continue
                if reduced is not None:
                    yield reduced

    def _apply_reduce(
        self, query: ConjunctiveQuery, i: int, j: int, unifier: Substitution
    ) -> Optional[ConjunctiveQuery]:
        # The unifier must not identify an answer variable with a constant
        # or merge two distinct answer variables (that would change the
        # semantics of the answer tuple).
        head_variables = set(query.head)
        for variable, term in unifier.items():
            if variable in head_variables:
                if not is_variable(term):
                    return None
        new_body = [atom for position, atom in enumerate(query.body) if position != j]
        substituted = apply_substitution(tuple(new_body), unifier)
        new_head = []
        for variable in query.head:
            image = unifier.get(variable, variable)
            if not is_variable(image):
                return None
            new_head.append(image)
        if len(set(new_head)) != len(new_head):
            return None
        return ConjunctiveQuery(tuple(new_head), substituted, query.name)
