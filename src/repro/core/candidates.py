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
   mention every answer variable — only the connected fact subsets are
   walked, never the full subset lattice of the border;
4. deduplicate by canonical signature.

A border's candidates (step 1-3) are tabled in the specification's
:class:`~repro.engine.cache.EvaluationCache`, so each distinct border is
abstracted once per generation shape and a repeated seed costs a lookup.

The resulting pool contains, for the paper's university example, the
queries ``q1``, ``q2`` and ``q3`` of Example 3.6 among others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ExplanationError, QueryArityError, UnsafeQueryError
from ..obdm.chase import ChaseEngine, is_labelled_null
from ..obdm.system import OBDMSystem
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Constant, Term, Variable, VariableFactory
from .border import Border, BorderComputer
from .labeling import ConstantTuple, Labeling, normalize_tuple
from .matching import MatchEvaluator


def check_caps(config, names: Sequence[str]) -> None:
    """Refuse a negative cap among the *names* fields of a config.

    Caps are used as slice bounds, where a negative value would silently
    mean "all but the last few" instead of an error.
    """
    for name in names:
        value = getattr(config, name)
        if value < 0:
            raise ExplanationError(
                f"{type(config).__name__}.{name} must be >= 0, got {value}"
            )


@dataclass(frozen=True)
class CandidateConfig:
    """Tuning knobs of the candidate generator (each a cap, refused when negative).

    Every positive tuple is a seed, its border ABox is always saturated
    with the ontology before abstraction, and candidates are deduplicated
    by canonical signature.
    """

    max_atoms: int = 3
    """Largest number of atoms in a generated conjunction."""

    max_kept_constants: int = 2
    """Largest number of non-answer constants kept (not variabilised) per query."""

    max_candidates: int = 2000
    """Hard cap on the size of the returned pool."""

    def __post_init__(self):
        check_caps(self, ("max_atoms", "max_kept_constants", "max_candidates"))


class CandidatePool(List[ConjunctiveQuery]):
    """A generated candidate pool plus its generation accounting.

    A plain list of queries (drop-in for every existing consumer) that
    also reports how the pool was shaped: ``generated`` distinct
    candidates were materialised, ``truncated`` of them were dropped by
    the deterministic ``max_candidates`` cutoff, and ``unexplored_seeds``
    positive tuples were never abstracted because the pool was already
    full.

    ``generated``/``truncated`` only cover the seeds that were explored;
    :attr:`exhausted` is the flag that says the numbers describe the
    *whole* candidate space (no cutoff fired anywhere).
    """

    def __init__(
        self,
        queries: Iterable[ConjunctiveQuery] = (),
        generated: int = 0,
        truncated: int = 0,
        unexplored_seeds: int = 0,
    ):
        super().__init__(queries)
        self.generated = generated
        self.truncated = truncated
        self.unexplored_seeds = unexplored_seeds

    @property
    def exhausted(self) -> bool:
        """True when enumeration ran to completion (nothing was cut off)."""
        return self.truncated == 0 and self.unexplored_seeds == 0

    def __str__(self):
        return (
            f"CandidatePool(size={len(self)}, generated={self.generated}, "
            f"truncated={self.truncated}, unexplored_seeds={self.unexplored_seeds})"
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

    # -- public API --------------------------------------------------------

    def generate(self, labeling: Labeling) -> CandidatePool:
        """Candidate pool for a labeling (seeded by its positive tuples).

        Each seed's candidates come from :meth:`candidates_for`: the
        connected, answer-covering fact subsets of its border, abstracted
        once per distinct border and generation shape and then served
        from the evaluation cache's candidate table (a labeling that
        repeats a positive, or a repeated request, costs a lookup for
        it).

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
        pool: List[ConjunctiveQuery] = []
        seen: Set[Tuple] = set()
        truncated = 0
        unexplored_seeds = 0
        for index, seed in enumerate(seeds):
            if len(pool) >= self.config.max_candidates:
                unexplored_seeds = len(seeds) - index
                break
            for candidate in self.candidates_for(seed):
                signature = candidate.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                if len(pool) < self.config.max_candidates:
                    pool.append(candidate)
                else:
                    truncated += 1
        return CandidatePool(
            pool,
            generated=len(pool) + truncated,
            truncated=truncated,
            unexplored_seeds=unexplored_seeds,
        )

    def candidates_for(self, raw) -> List[ConjunctiveQuery]:
        """Candidate queries abstracted from one positive tuple's border.

        The list is tabled in the shared evaluation cache under (border,
        ``max_atoms``, ``max_kept_constants``) — everything it depends on
        besides the specification the cache belongs to.
        """
        border = self.borders.border(normalize_tuple(raw), self.radius)
        key = (border, self.config.max_atoms, self.config.max_kept_constants)
        cache = self.system.specification.engine.cache
        return list(cache.candidates(key, lambda: self._abstract(border)))

    # -- helpers -------------------------------------------------------------

    def _abstract(self, border: Border) -> List[ConjunctiveQuery]:
        """The candidates of one border, abstracted from its ontology facts."""
        key = border.tuple
        facts = self._ontology_facts(border)
        if not facts:
            return []
        answer_variables = tuple(Variable(f"x{i}") for i in range(len(key)))
        abstraction = _BorderAbstraction(key, answer_variables, facts)
        return abstraction.enumerate(
            max_atoms=self.config.max_atoms,
            max_kept_constants=self.config.max_kept_constants,
        )

    def _ontology_facts(self, border: Border) -> FrozenSet[Atom]:
        """Retrieved and saturated ontology facts of a border."""
        [abox] = self.evaluator.border_aboxes([border])
        facts = self._chaser.chase(set(abox.facts))
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

    # -- enumeration -----------------------------------------------------------------

    def enumerate(self, max_atoms: int, max_kept_constants: int) -> List[ConjunctiveQuery]:
        """All connected sub-conjunctions up to ``max_atoms`` atoms.

        The fact subsets come from :meth:`connected_subsets`, which walks
        only the subsets connected to the answer constants (never the
        whole subset lattice) and returns them in the canonical order:
        ascending size, then ascending sorted fact indices.  Each subset
        is abstracted into its kept-constant variants in that order, so
        the list (and any ``max_candidates`` cutoff over it) is a pure
        function of the border's facts; that is what lets
        :meth:`CandidateGenerator.candidates_for` table the list per
        border.
        """
        queries: List[ConjunctiveQuery] = []
        seen: Set[Tuple] = set()
        for indices in self.connected_subsets(max_atoms):
            subset = [self.facts[index] for index in indices]
            for kept in self._constant_subsets(subset, max_kept_constants):
                body = tuple(self._abstract_atom(fact, kept) for fact in subset)
                query = self._safe_query(body)
                if query is None:
                    continue
                signature = query.signature()
                if signature not in seen:
                    seen.add(signature)
                    queries.append(query)
        return queries

    def connected_subsets(self, max_atoms: int) -> List[Tuple[int, ...]]:
        """Admissible fact subsets of at most ``max_atoms`` facts, as sorted indices.

        A subset is admissible when it mentions every answer constant and
        each of its facts is reachable from an answer constant through
        constants shared within the subset (otherwise the abstracted
        query has a conjunct disconnected from the answer variables).
        They are the answer-covering subsets :meth:`_rooted_subsets`
        visits, returned per size in ascending index order — the order
        a scan over ``self.facts`` meets them.
        """
        answers = self._answer_constants()
        by_size: List[List[Tuple[int, ...]]] = [[] for _ in range(max_atoms + 1)]
        for subset, covered in self._rooted_subsets(max_atoms):
            if covered == answers:
                by_size[len(subset)].append(tuple(sorted(subset)))
        return [subset for group in by_size for subset in sorted(group)]

    def _rooted_subsets(
        self, max_atoms: int
    ) -> Iterator[Tuple[Tuple[int, ...], Set[Constant]]]:
        """Each connected subset of 1..``max_atoms`` facts, once, with its answer constants.

        The subsets connected to the answer constants are the connected
        vertex sets containing a virtual *root* adjacent to every fact
        that mentions an answer constant, in the graph where facts
        sharing a constant (labelled nulls included) are adjacent.  ESU
        extension (Wernicke 2006) from the root visits each exactly once:
        a subset grows only by its extension set, and a fact enters that
        set only through the first member it is adjacent to (it must not
        neighbour the subset already), so no subset is reached along two
        paths.  The work is proportional to the connected subsets, not
        to the C(n, k) subsets of a full scan.
        """
        facts = self.facts
        answers = self._answer_constants()
        by_constant: Dict[Term, List[int]] = {}
        for index, fact in enumerate(facts):
            for argument in set(fact.args):
                by_constant.setdefault(argument, []).append(index)
        neighbours: Dict[int, FrozenSet[int]] = {}

        def adjacent(index: int) -> FrozenSet[int]:
            near = neighbours.get(index)
            if near is None:
                near = neighbours[index] = frozenset(
                    other
                    for argument in set(facts[index].args)
                    for other in by_constant[argument]
                    if other != index
                )
            return near

        def extend(subset, covered, extension, blocked):
            # *blocked*: the subset and every fact adjacent to it or to
            # the root; *extension*: the facts this subset may still add.
            while extension:
                index = extension.pop()
                grown = subset + (index,)
                grown_covered = covered | answers.intersection(facts[index].args)
                yield grown, grown_covered
                if len(grown) < max_atoms:
                    near = adjacent(index)
                    yield from extend(
                        grown,
                        grown_covered,
                        extension + [other for other in near if other not in blocked],
                        blocked | near,
                    )

        rooted = {index for answer in answers for index in by_constant.get(answer, ())}
        if max_atoms >= 1:
            yield from extend((), set(), sorted(rooted), rooted)

    def _constant_subsets(
        self, subset: Sequence[Atom], max_kept_constants: int
    ) -> Iterable[FrozenSet[Constant]]:
        """Which non-answer constants to keep: none, singletons, all (capped).

        Every variant keeps at most ``max_kept_constants`` constants, so
        a cap of 0 yields only the fully variabilised body.
        """
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
        if max_kept_constants >= 1:
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
