"""Bottom-up generation of candidate explanation queries.

The paper's framework (Definition 3.7) quantifies over *all* queries of
a language ``L_O``, which is infinite.  A practical search needs a
finite, relevant candidate space.  This module builds candidates
bottom-up from the data, mirroring how the example queries of
Example 3.6 relate to the borders of the positive tuples:

1. for every positive tuple ``t``, compute its border ``B_{t,r}(D)`` and
   retrieve+saturate the corresponding ontology facts (so that axiom-
   derived atoms such as ``likes(A10, 'Math')`` are available);
2. abstract the facts into query atoms: the components of ``t`` become
   answer variables, the remaining constants become either variables or
   constants (both variants are generated, governed by the policy);
3. enumerate connected sub-conjunctions up to ``max_atoms`` atoms that
   mention every answer variable;
4. deduplicate by canonical signature (and optionally semantically).

The resulting pool contains, for the paper's university example, the
queries ``q1``, ``q2`` and ``q3`` of Example 3.6 among others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..dl.reasoner import Reasoner
from ..errors import ExplanationError, QueryArityError, UnsafeQueryError
from ..obdm.chase import ChaseEngine, is_labelled_null
from ..obdm.system import OBDMSystem
from ..queries.atoms import Atom
from ..queries.containment import deduplicate_queries
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Constant, Term, Variable, VariableFactory, is_constant
from .border import Border, BorderComputer
from .labeling import ConstantTuple, Labeling, normalize_tuple
from .matching import MatchEvaluator


@dataclass(frozen=True)
class CandidateConfig:
    """Tuning knobs of the candidate generator."""

    max_atoms: int = 3
    """Largest number of atoms in a generated conjunction."""

    max_kept_constants: int = 2
    """Largest number of non-answer constants kept (not variabilised) per query."""

    max_candidates: int = 2000
    """Hard cap on the size of the returned pool."""

    saturate: bool = True
    """Chase the border ABox with the ontology before abstraction."""

    include_most_specific: bool = False
    """Also emit, per positive tuple, the full (possibly large) border query."""

    semantic_deduplication: bool = False
    """Additionally remove semantically equivalent queries (slower)."""

    max_positive_seeds: Optional[int] = None
    """Use only the first N positive tuples as seeds (None = all)."""


class CandidatePool(List[ConjunctiveQuery]):
    """A generated candidate pool plus its generation accounting.

    A plain list of queries (drop-in for every existing consumer) that
    also reports how the pool was shaped: ``generated`` distinct
    candidates were materialised, ``truncated`` of them were dropped by
    the deterministic ``max_candidates`` cutoff, ``unexplored_seeds``
    positive tuples were never abstracted because the pool was already
    full, and — when a :class:`~repro.engine.kernel.ProvenancePruner`
    was supplied — ``pruned`` of ``checked`` candidate bodies were
    discarded *before* materialisation because their AND-of-supports
    bound was zero.

    ``generated``/``truncated`` only cover the seeds that were explored;
    :attr:`exhausted` is the flag that says the numbers describe the
    *whole* candidate space (no cutoff fired anywhere).
    """

    def __init__(
        self,
        queries: Iterable[ConjunctiveQuery] = (),
        generated: int = 0,
        truncated: int = 0,
        pruned: int = 0,
        checked: int = 0,
        unexplored_seeds: int = 0,
    ):
        super().__init__(queries)
        self.generated = generated
        self.truncated = truncated
        self.pruned = pruned
        self.checked = checked
        self.unexplored_seeds = unexplored_seeds

    @property
    def exhausted(self) -> bool:
        """True when enumeration ran to completion (nothing was cut off)."""
        return self.truncated == 0 and self.unexplored_seeds == 0

    def __str__(self):
        return (
            f"CandidatePool(size={len(self)}, generated={self.generated}, "
            f"truncated={self.truncated}, unexplored_seeds={self.unexplored_seeds}, "
            f"pruned={self.pruned})"
        )


class CandidateGenerator:
    """Generates candidate CQs from the borders of the positive examples."""

    def __init__(
        self,
        system: OBDMSystem,
        radius: int = 1,
        config: Optional[CandidateConfig] = None,
        border_computer: Optional[BorderComputer] = None,
        evaluator: Optional[MatchEvaluator] = None,
    ):
        self.system = system
        self.radius = radius
        self.config = config or CandidateConfig()
        self.borders = border_computer or BorderComputer(system.database)
        # Border ABoxes come from the evaluator's (cached, tabled) retrieval.
        self.evaluator = evaluator or MatchEvaluator(system, radius, self.borders)
        self._chaser = ChaseEngine(system.ontology)
        self._skipped_variants = 0

    # -- public API --------------------------------------------------------

    def generate(self, labeling: Labeling, pruner=None) -> CandidatePool:
        """Candidate pool for a labeling (seeded by its positive tuples).

        With a :class:`~repro.engine.kernel.ProvenancePruner`, candidate
        bodies whose provenance bound is zero are skipped before the
        query object is even built (the pool reports how many).

        The ``max_candidates`` cutoff is deterministic: candidates carry
        a stable canonical ordering — seeds sorted by ``repr``, bodies
        per seed in ascending atom count over lexicographically sorted
        fact subsets — and truncation keeps exactly the first
        ``max_candidates`` of it.  Seeds beyond the one that fills the
        pool are never abstracted (borders can hold hundreds of facts,
        so running every seed to completion just to count the tail would
        dwarf the search itself); instead the cutoff is *surfaced*:
        ``truncated`` counts the overflowing seed's dropped remainder,
        ``unexplored_seeds`` the seeds never visited, and
        ``pool.exhausted`` is True exactly when neither fired — i.e.
        when ``generated`` describes the complete candidate space.
        """
        seeds = sorted(labeling.positives, key=repr)
        if self.config.max_positive_seeds is not None:
            seeds = seeds[: self.config.max_positive_seeds]
        checked_before = pruner.checked if pruner is not None else 0
        self._skipped_variants = 0
        pool: List[ConjunctiveQuery] = []
        seen: Set[Tuple] = set()
        truncated = 0
        unexplored_seeds = 0
        for index, seed in enumerate(seeds):
            if len(pool) >= self.config.max_candidates:
                unexplored_seeds = len(seeds) - index
                break
            for candidate in self.candidates_for(seed, pruner=pruner):
                signature = candidate.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                if len(pool) < self.config.max_candidates:
                    pool.append(candidate)
                else:
                    truncated += 1
        generated = len(pool) + truncated
        if self.config.semantic_deduplication:
            pool = deduplicate_queries(pool)
        return CandidatePool(
            pool,
            generated=generated,
            truncated=truncated,
            pruned=self._skipped_variants,
            checked=(pruner.checked - checked_before) if pruner is not None else 0,
            unexplored_seeds=unexplored_seeds,
        )

    def candidates_for(self, raw, pruner=None) -> List[ConjunctiveQuery]:
        """Candidate queries abstracted from one positive tuple's border."""
        key = normalize_tuple(raw)
        border = self.borders.border(key, self.radius)
        facts = self._ontology_facts(border)
        if not facts:
            return []
        answer_variables = tuple(Variable(f"x{i}") for i in range(len(key)))
        abstraction = _BorderAbstraction(key, answer_variables, facts)
        candidates = abstraction.enumerate(
            max_atoms=self.config.max_atoms,
            max_kept_constants=self.config.max_kept_constants,
            pruner=pruner,
        )
        self._skipped_variants += abstraction.skipped
        if self.config.include_most_specific:
            most_specific = abstraction.most_specific_query()
            if most_specific is not None:
                if pruner is None or pruner.admits(most_specific.body):
                    candidates.append(most_specific)
                else:
                    self._skipped_variants += 1
        return candidates

    # -- helpers -------------------------------------------------------------

    def _ontology_facts(self, border: Border) -> FrozenSet[Atom]:
        """Retrieved (and optionally saturated) ontology facts of a border."""
        [abox] = self.evaluator.border_aboxes([border])
        facts = set(abox.facts)
        if self.config.saturate:
            facts = set(self._chaser.chase(facts))
        # Atoms whose every argument is a labelled null cannot contribute a
        # useful query atom (they would become a disconnected conjunct).
        return frozenset(
            fact
            for fact in facts
            if not all(is_labelled_null(argument) for argument in fact.args)
        )


class _BorderAbstraction:
    """Turns the ontology facts of one border into candidate query bodies."""

    def __init__(
        self,
        key: ConstantTuple,
        answer_variables: Tuple[Variable, ...],
        facts: FrozenSet[Atom],
    ):
        self.key = key
        self.answer_variables = answer_variables
        self.facts = sorted(facts)
        # Upper bound on how many abstracted bodies the last enumerate()
        # call skipped via its pruner (variant-weighted, see enumerate).
        self.skipped = 0
        self._constant_to_term: Dict[Constant, Term] = {}
        factory = VariableFactory(prefix="y")
        for constant, variable in zip(key, answer_variables):
            self._constant_to_term[constant] = variable
        self._other_variable: Dict[Constant, Variable] = {}
        for fact in self.facts:
            for argument in fact.args:
                if argument not in self._constant_to_term and argument not in self._other_variable:
                    self._other_variable[argument] = factory.fresh()

    # -- abstraction ------------------------------------------------------------

    def _abstract_atom(self, fact: Atom, kept: FrozenSet[Constant]) -> Atom:
        arguments: List[Term] = []
        for argument in fact.args:
            if argument in self._constant_to_term:
                arguments.append(self._constant_to_term[argument])
            elif argument in kept and not is_labelled_null(argument):
                arguments.append(argument)
            else:
                arguments.append(self._other_variable[argument])
        return Atom(fact.predicate, tuple(arguments))

    def _answer_constants(self) -> Set[Constant]:
        return set(self.key)

    def _mentions_answer(self, fact: Atom) -> bool:
        answers = self._answer_constants()
        return any(argument in answers for argument in fact.args)

    # -- enumeration -----------------------------------------------------------------

    def enumerate(
        self, max_atoms: int, max_kept_constants: int, pruner=None
    ) -> List[ConjunctiveQuery]:
        """All connected sub-conjunctions up to ``max_atoms`` atoms.

        With a pruner, each admissible subset is first checked through
        its *widest* abstraction (no constants kept: variabilising an
        argument only ever widens an atom's provenance support, so a
        zero bound there proves a zero bound for every kept-constant
        variant and the whole subset is skipped); surviving non-empty
        ``kept`` variants are then checked individually, all before any
        :class:`ConjunctiveQuery` is materialised.
        """
        queries: List[ConjunctiveQuery] = []
        seen: Set[Tuple] = set()
        self.skipped = 0
        for size in range(1, max_atoms + 1):
            for subset in itertools.combinations(self.facts, size):
                if not self._is_admissible(subset):
                    continue
                if pruner is not None and not pruner.admits(
                    tuple(self._abstract_atom(fact, frozenset()) for fact in subset)
                ):
                    # The whole subset dies; count every kept-constant
                    # variant it would have produced, so callers can
                    # bound how many queries pruning hid (the cutoff
                    # certificate in BestDescriptionSearch.search needs
                    # an upper bound, not the number of oracle calls).
                    self.skipped += sum(
                        1 for _ in self._constant_subsets(subset, max_kept_constants)
                    )
                    continue
                for kept in self._constant_subsets(subset, max_kept_constants):
                    body = tuple(self._abstract_atom(fact, kept) for fact in subset)
                    if pruner is not None and kept and not pruner.admits(body):
                        self.skipped += 1
                        continue
                    query = self._safe_query(body)
                    if query is None:
                        continue
                    signature = query.signature()
                    if signature not in seen:
                        seen.add(signature)
                        queries.append(query)
        return queries

    def most_specific_query(self) -> Optional[ConjunctiveQuery]:
        """The full border query with every non-answer constant kept."""
        usable = [fact for fact in self.facts]
        if not usable:
            return None
        kept = frozenset(
            constant for constant in self._other_variable if not is_labelled_null(constant)
        )
        body = tuple(self._abstract_atom(fact, kept) for fact in usable)
        return self._safe_query(body)

    # -- admissibility ------------------------------------------------------------------

    def _is_admissible(self, subset: Sequence[Atom]) -> bool:
        """Subsets must cover every answer constant and be connected to them."""
        answers = self._answer_constants()
        covered = set()
        for fact in subset:
            covered |= {argument for argument in fact.args if argument in answers}
        if covered != answers:
            return False
        # Every atom must be reachable from an answer constant through
        # shared constants within the subset (otherwise the abstracted
        # query has a conjunct disconnected from the answer variables).
        remaining = list(subset)
        frontier_constants: Set[Constant] = set(answers)
        changed = True
        connected: Set[Atom] = set()
        while changed:
            changed = False
            for fact in list(remaining):
                if any(argument in frontier_constants for argument in fact.args):
                    connected.add(fact)
                    remaining.remove(fact)
                    frontier_constants |= set(fact.args)
                    changed = True
        return not remaining

    def _constant_subsets(
        self, subset: Sequence[Atom], max_kept_constants: int
    ) -> Iterable[FrozenSet[Constant]]:
        """Which non-answer constants to keep: none, all (capped), singletons."""
        answers = self._answer_constants()
        others: List[Constant] = []
        for fact in subset:
            for argument in fact.args:
                if (
                    argument not in answers
                    and not is_labelled_null(argument)
                    and argument not in others
                ):
                    others.append(argument)
        yielded: Set[FrozenSet[Constant]] = set()

        def emit(kept: FrozenSet[Constant]):
            if kept not in yielded:
                yielded.add(kept)
                return True
            return False

        if emit(frozenset()):
            yield frozenset()
        for constant in others:
            kept = frozenset({constant})
            if emit(kept):
                yield kept
        if len(others) <= max_kept_constants:
            kept = frozenset(others)
            if emit(kept):
                yield kept

    def _safe_query(self, body: Tuple[Atom, ...]) -> Optional[ConjunctiveQuery]:
        """Build a CQ, returning ``None`` when the head would be unsafe."""
        try:
            return ConjunctiveQuery(self.answer_variables, body)
        except (QueryArityError, UnsafeQueryError):
            return None
