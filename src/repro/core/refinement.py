"""Top-down refinement search for explanation queries.

The bottom-up generator of :mod:`repro.core.candidates` abstracts
queries from the data.  This module implements the complementary,
concept-learning-style strategy (in the spirit of the DL-Learner /
DL-FOIL systems the paper cites): start from the most general queries
over the ontology vocabulary and *refine* them step by step, keeping a
beam of the highest-scoring queries.

Refinement operators on a CQ ``q(x) :- body``:

* **add-atom** — conjoin a new atom that shares a variable with the
  current body (a concept atom ``A(v)`` or a role atom ``R(v, fresh)`` /
  ``R(fresh, v)``);
* **bind-constant** — replace an existential variable with a constant
  observed in the positive borders;
* **specialise-predicate** — replace an atom's predicate with one of its
  direct subsumees in the ontology (e.g. ``likes`` → ``studies``).

Each operator makes the query more specific (its certain answers can
only shrink), so the search explores the generalisation lattice from the
top, pruning branches whose positive coverage (δ1) already dropped to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..dl.reasoner import Reasoner
from ..dl.syntax import AtomicConcept, AtomicRole, ExistentialRestriction, InverseRole
from ..errors import ExplanationError
from ..obdm.system import OBDMSystem
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Constant, Variable, VariableFactory
from .candidates import check_caps

if TYPE_CHECKING:
    from .best_describe import QueryScorer


@dataclass(frozen=True)
class RefinementConfig:
    """Tuning knobs of the beam search (each a cap, refused when negative)."""

    beam_width: int = 10
    max_atoms: int = 3
    max_iterations: int = 4
    max_constants: int = 12
    """How many border constants are considered for the bind-constant operator."""

    def __post_init__(self):
        check_caps(self, ("beam_width", "max_atoms", "max_iterations", "max_constants"))


class RefinementSearch:
    """Beam search over the CQ refinement lattice.

    Every query the beam meets is scored once by *scorer*, whose profile
    also decides zero coverage: a refinement that matches no positive
    tuple is discarded.  The initial queries, and then each iteration's
    unseen refinements, get their verdict rows in one fill
    (``scorer.prepare``) before they are scored.
    """

    def __init__(
        self,
        system: OBDMSystem,
        scorer: "QueryScorer",
        config: Optional[RefinementConfig] = None,
    ):
        if scorer.labeling.arity != 1:
            raise ExplanationError(
                "refinement search currently supports unary labelings; "
                "use the bottom-up candidate generator for higher arities"
            )
        self.system = system
        self.scorer = scorer
        self.labeling = scorer.labeling
        self.evaluator = scorer.evaluator
        self.config = config or RefinementConfig()
        self.reasoner = Reasoner(system.ontology)
        self._answer_variable = Variable("x")
        self._abox_predicates = self._relevant_predicates()
        self._border_constants = self._collect_border_constants()

    # -- initial beam -----------------------------------------------------------

    def _relevant_predicates(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Ontology concepts/roles that actually occur in the virtual ABox."""
        abox_predicates = self.system.virtual_abox().predicates()
        ontology = self.system.ontology
        concepts = frozenset(p for p in abox_predicates if p in ontology.concept_names)
        roles = frozenset(p for p in abox_predicates if p in ontology.role_names)
        # Predicates derivable through the ontology are also relevant: a
        # super-role such as ``likes`` never occurs in the ABox directly
        # but is entailed for every ``studies`` fact.
        derived_concepts, derived_roles = set(concepts), set(roles)
        for role_name in roles:
            role = AtomicRole(role_name)
            for subsumer in self.reasoner.role_subsumers(role):
                derived_roles.add(subsumer.predicate)
            for concept in self.reasoner.subsumers(ExistentialRestriction(role)):
                if isinstance(concept, AtomicConcept):
                    derived_concepts.add(concept.name)
            for concept in self.reasoner.subsumers(ExistentialRestriction(role.inverse())):
                if isinstance(concept, AtomicConcept):
                    derived_concepts.add(concept.name)
        for concept_name in concepts:
            for concept in self.reasoner.subsumers(AtomicConcept(concept_name)):
                if isinstance(concept, AtomicConcept):
                    derived_concepts.add(concept.name)
        return frozenset(derived_concepts), frozenset(derived_roles)

    def _collect_border_constants(self) -> List[Constant]:
        """Constants from positive borders, used by the bind-constant operator."""
        counts: Dict[Constant, int] = {}
        positive_keys = {t[0] for t in self.labeling.positives}
        borders = [
            self.evaluator.border_of(raw) for raw in sorted(self.labeling.positives, key=repr)
        ]
        for abox in self.evaluator.border_aboxes(borders):
            for fact in abox.facts:
                for argument in fact.args:
                    if argument in positive_keys:
                        continue
                    counts[argument] = counts.get(argument, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], repr(item[0])))
        return [constant for constant, _ in ranked[: self.config.max_constants]]

    def initial_queries(self) -> List[ConjunctiveQuery]:
        """The most general one-atom queries over the relevant vocabulary."""
        concepts, roles = self._abox_predicates
        x = self._answer_variable
        queries: List[ConjunctiveQuery] = []
        for concept in sorted(concepts):
            queries.append(ConjunctiveQuery((x,), (Atom(concept, (x,)),)))
        for role in sorted(roles):
            fresh = Variable("y0")
            queries.append(ConjunctiveQuery((x,), (Atom(role, (x, fresh)),)))
            queries.append(ConjunctiveQuery((x,), (Atom(role, (fresh, x)),)))
        return queries

    # -- refinement operators ------------------------------------------------------

    def refinements(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        yield from self._add_atom(query)
        yield from self._bind_constant(query)
        yield from self._specialise_predicate(query)

    def _add_atom(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        if query.atom_count() >= self.config.max_atoms:
            return
        concepts, roles = self._abox_predicates
        factory = VariableFactory(query.variables(), prefix="y")
        existing = set(query.body)
        for variable in sorted(query.variables()):
            for concept in sorted(concepts):
                atom = Atom(concept, (variable,))
                if atom not in existing:
                    yield query.add_atoms((atom,))
            for role in sorted(roles):
                fresh = factory.fresh()
                forward = Atom(role, (variable, fresh))
                backward = Atom(role, (fresh, variable))
                if forward not in existing:
                    yield query.add_atoms((forward,))
                if backward not in existing:
                    yield query.add_atoms((backward,))

    def _bind_constant(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        for variable in sorted(query.existential_variables()):
            for constant in self._border_constants:
                yield query.apply({variable: constant})

    def _specialise_predicate(self, query: ConjunctiveQuery) -> Iterable[ConjunctiveQuery]:
        ontology = self.system.ontology
        for position, atom in enumerate(query.body):
            if atom.predicate in ontology.role_names and atom.arity == 2:
                role = AtomicRole(atom.predicate)
                for subsumee in self.reasoner.role_subsumees(role):
                    if subsumee == role:
                        continue
                    if isinstance(subsumee, InverseRole):
                        replacement = Atom(subsumee.role.name, (atom.args[1], atom.args[0]))
                    else:
                        replacement = Atom(subsumee.name, atom.args)
                    body = list(query.body)
                    body[position] = replacement
                    yield query.with_body(tuple(body))
            elif atom.predicate in ontology.concept_names and atom.arity == 1:
                concept = AtomicConcept(atom.predicate)
                for subsumee in self.reasoner.subsumees(concept):
                    if subsumee == concept or not isinstance(subsumee, AtomicConcept):
                        continue
                    body = list(query.body)
                    body[position] = Atom(subsumee.name, atom.args)
                    yield query.with_body(tuple(body))

    # -- beam search -----------------------------------------------------------------

    def search(self) -> List[Tuple[ConjunctiveQuery, float]]:
        """Run the beam search; returns (query, score) pairs, best first."""
        scored: Dict[Tuple, Tuple[ConjunctiveQuery, float]] = {}

        def consider(queries: List[ConjunctiveQuery]) -> List[Tuple[ConjunctiveQuery, float]]:
            """The (query, score) entry of each query, first-met query per signature.

            The queries the beam has not met yet get their verdict rows
            from one fill (``scorer.prepare``) before any is scored.
            """
            signatures = [query.signature() for query in queries]
            unseen: Dict[Tuple, ConjunctiveQuery] = {}
            for signature, query in zip(signatures, queries):
                if signature not in scored:
                    unseen.setdefault(signature, query)
            self.scorer.prepare(list(unseen.values()))
            for signature, query in unseen.items():
                entry = self.scorer.score(query)
                covers = entry.profile.true_positives > 0
                scored[signature] = (query, entry.score if covers else float("-inf"))
            return [scored[signature] for signature in signatures]

        def covering(entries):
            return [entry for entry in entries if entry[1] != float("-inf")]

        beam = covering(consider(self.initial_queries()))
        beam.sort(key=lambda item: (-item[1], item[0].atom_count(), str(item[0])))
        beam = beam[: self.config.beam_width]

        for _ in range(self.config.max_iterations):
            refined = [child for query, _score in beam for child in self.refinements(query)]
            frontier = covering(consider(refined))
            if not frontier:
                break
            merged = {q.signature(): (q, s) for q, s in beam}
            for query, score in frontier:
                merged[query.signature()] = (query, score)
            beam = sorted(
                merged.values(), key=lambda item: (-item[1], item[0].atom_count(), str(item[0]))
            )[: self.config.beam_width]

        results = covering(scored.values())
        results.sort(key=lambda item: (-item[1], item[0].atom_count(), str(item[0])))
        return results
