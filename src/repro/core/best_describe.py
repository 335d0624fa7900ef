"""Searching for the ``L_O``-best describing query (Definition 3.7).

A query *best describes* ``λ`` w.r.t. an OBDM system, a radius, a set of
criteria ``Δ``, functions ``F`` and an expression ``Z`` when no other
query of the language has a strictly higher Z-score.  Since the language
is infinite, the implementation searches a finite candidate space built
by the bottom-up generator (:mod:`repro.core.candidates`), the top-down
refinement search (:mod:`repro.core.refinement`), or an explicit list
supplied by the caller, and returns the maximiser over that space
together with the ranking, or its first ``k`` entries.

Ranking scores each *score class* once
(:meth:`BestDescriptionSearch.rank`).  With the built-in criteria on the
bitset path, Z depends only on a candidate's (TP, FP, #disjuncts,
#atoms), so a pool of hundreds of candidates falls into a dozen or so
classes.  This is the Tabled CLP idea of tabling an answer once per call
variant, applied to Z.  Only the candidates that can reach the first
``k`` places are ordered by their text, and only the returned entries
get a :class:`ScoredQuery`.

For ``L_O = UCQ`` the search additionally builds unions greedily: it
starts from the best CQ and keeps adding the disjunct that most improves
the Z-score (criterion δ6 naturally counterbalances unions that grow too
large).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..errors import ExplanationError
from ..obdm.certain_answers import OntologyQuery
from ..obdm.system import OBDMSystem
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries, query_key
from .border import BorderComputer
from .candidates import CandidateConfig, CandidateGenerator, CandidatePool
from .criteria import (
    DEFAULT_REGISTRY,
    DELTA_1,
    DELTA_4,
    DELTA_5,
    MONOTONE_CRITERIA,
    Criterion,
    CriteriaRegistry,
    EvaluationContext,
    evaluate_criteria,
)
from .labeling import Labeling, normalize_tuple
from .matching import CountProfile, MatchEvaluator, MatchProfile
from .refinement import RefinementConfig, RefinementSearch
from .scoring import ScoringExpression, example_3_8_expression


@dataclass(frozen=True)
class ScoredQuery:
    """A candidate query with its Z-score and per-criterion values."""

    query: OntologyQuery
    score: float
    criterion_values: Tuple[Tuple[str, float], ...]
    profile: MatchProfile

    @property
    def values(self) -> Dict[str, float]:
        return dict(self.criterion_values)

    def __str__(self):
        values = ", ".join(f"{key}={value:.3f}" for key, value in self.criterion_values)
        return f"Z={self.score:.3f} [{values}]  {self.query}"


def check_limit(k: Optional[int]) -> None:
    """Refuse a negative ranking limit: ``None`` keeps everything, ``0`` nothing.

    Slicing with a negative ``k`` would silently drop entries off the
    end of a ranking instead.
    """
    if k is not None and k < 0:
        raise ExplanationError(f"top_k must be None or >= 0, got {k}")


def query_size(query: OntologyQuery) -> Tuple[int, int]:
    """(#disjuncts, #atoms): the ranking's tie-break after the Z-score."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return (query.disjunct_count(), query.atom_count())
    return (1, query.atom_count())


class QueryScorer:
    """Evaluates Δ, F and Z for queries against one labeling.

    :meth:`score` scores one query.  :meth:`evaluate` computes Z and the
    criterion values of one evaluation context.  Ranking calls it once
    per score class, on a :meth:`count_context` when the class is a
    count tuple (:meth:`scores_by_counts`).

    Match profiles come from one of two interchangeable paths:

    * the **bitset path** (default) — a shared
      :class:`~repro.engine.verdicts.VerdictMatrix` holds one verdict
      bitset per candidate and profiles are popcount views over rows;
    * the **per-pair oracle** — ``MatchEvaluator.profile`` asks one
      (query, border) Definition 3.4 question at a time; it is the
      reference the bitset path is tested against.

    The engine-level switch ``specification.engine.verdicts.enabled``
    selects the path.  The two are verdict-for-verdict identical (pinned
    by the differential suites), so the choice only affects speed.
    """

    def __init__(
        self,
        evaluator: MatchEvaluator,
        labeling: Labeling,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        matrix=None,
    ):
        self.evaluator = evaluator
        self.labeling = labeling
        self.criteria = registry.resolve(criteria)
        self.expression = expression or example_3_8_expression()
        # A pre-built VerdictMatrix may be injected so long-lived services
        # can serve repeated requests from one warm matrix (the caller
        # guarantees it was built for this labeling, evaluator and radius).
        self._matrix = matrix
        missing = [
            variable
            for variable in self.expression.variables()
            if variable not in {criterion.key for criterion in self.criteria}
        ]
        if missing:
            raise ExplanationError(
                f"scoring expression refers to criteria {missing} that are not in Δ"
            )

    # -- verdict path selection ------------------------------------------

    @property
    def uses_verdict_matrix(self) -> bool:
        return self.evaluator.system.specification.engine.verdicts.enabled

    def verdict_matrix(self):
        """The labeling's verdict matrix (built lazily, rows shared)."""
        if self._matrix is None:
            from ..engine.verdicts import BorderColumns, VerdictMatrix

            columns = BorderColumns.from_labeling(self.evaluator, self.labeling)
            self._matrix = VerdictMatrix(self.evaluator, columns)
        return self._matrix

    def prepare(self, candidates: Sequence[OntologyQuery]) -> None:
        """Precompute verdict rows for a pool in one batch-kernel dispatch.

        A no-op on the per-pair oracle path; on the bitset path this is
        what makes ranking a pool one pass over the merged border ABoxes.
        """
        if self.uses_verdict_matrix:
            self.verdict_matrix().build(candidates)

    def context_for(self, query: OntologyQuery) -> EvaluationContext:
        if self.uses_verdict_matrix:
            profile = self.verdict_matrix().profile(query)
        else:
            profile = self.evaluator.profile(query, self.labeling)
        return EvaluationContext(query, profile, self.labeling, self.evaluator.radius)

    def count_context(
        self, query: OntologyQuery, true_positives: int, false_positives: int
    ) -> EvaluationContext:
        """A context whose profile carries only the (TP, FP) counts given.

        Its :class:`~repro.core.matching.CountProfile` raises on any set
        view, so only count-reading criteria evaluate on it.
        """
        columns = self.verdict_matrix().columns
        profile = CountProfile(
            true_positives,
            columns.positive_count - true_positives,
            false_positives,
            columns.negative_count - false_positives,
        )
        return EvaluationContext(query, profile, self.labeling, self.evaluator.radius)

    def scores_by_counts(self) -> bool:
        """Whether Z is a function of (TP, FP, #disjuncts, #atoms) here.

        True on the bitset path when every criterion of Δ is built-in
        (``MONOTONE_CRITERIA`` is exactly that set).  Each of them reads
        only its profile's four counts and the query's atom and
        disjunct counts, and Z is a function of the criterion values
        alone (:meth:`ScoringExpression.score`).
        ``tests/core/test_ranking.py`` pins the criteria's side of this.
        """
        return self.uses_verdict_matrix and all(
            criterion in MONOTONE_CRITERIA for criterion in self.criteria
        )

    def evaluate(
        self, context: EvaluationContext
    ) -> Tuple[float, Tuple[Tuple[str, float], ...]]:
        """The Z-score and the sorted criterion values of one context."""
        values = evaluate_criteria(self.criteria, context)
        return self.expression.score(values), tuple(sorted(values.items()))

    def score(self, query: OntologyQuery) -> ScoredQuery:
        """Compute the Z-score (and criterion breakdown) of one query."""
        context = self.context_for(query)
        z_score, values = self.evaluate(context)
        return ScoredQuery(query, z_score, values, context.profile)


class BestDescriptionSearch:
    """End-to-end search for the best-describing query over a candidate space."""

    def __init__(
        self,
        system: OBDMSystem,
        labeling: Labeling,
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        border_computer: Optional[BorderComputer] = None,
        evaluator: Optional[MatchEvaluator] = None,
        matrix=None,
    ):
        self.system = system
        self.labeling = labeling
        self.radius = radius
        # A long-lived caller (repro.service) may pass its own warm
        # evaluator (shared border-ABox cache) and a pre-built verdict
        # matrix for this labeling; both default to fresh objects.
        if evaluator is not None:
            if evaluator.radius != radius:
                raise ExplanationError(
                    f"injected evaluator has radius {evaluator.radius}, search needs {radius}"
                )
            if evaluator.system is not system:
                raise ExplanationError(
                    "injected evaluator was built over a different OBDM system"
                )
        if matrix is not None:
            columns = matrix.columns
            if matrix.evaluator.system is not system:
                # Verdict bits reflect the borders of the database the
                # matrix was built over; a matrix from another system
                # would pass the column checks below and silently score
                # against the wrong data.
                raise ExplanationError(
                    "injected verdict matrix was built over a different OBDM system"
                )
            if columns.radius != radius or (
                set(columns.positive_tuples) != {normalize_tuple(t) for t in labeling.positives}
                or set(columns.negative_tuples) != {normalize_tuple(t) for t in labeling.negatives}
            ):
                raise ExplanationError(
                    f"injected verdict matrix was built for another labeling or "
                    f"radius ({columns}, search needs radius {radius} over "
                    f"{labeling})"
                )
        self.evaluator = evaluator or MatchEvaluator(system, radius, border_computer)
        self.scorer = QueryScorer(
            self.evaluator, labeling, criteria, expression, registry, matrix=matrix
        )

    # -- ranking a given candidate set ----------------------------------------------

    def rank(
        self, candidates: Iterable[OntologyQuery], limit: Optional[int] = None
    ) -> List[ScoredQuery]:
        """The first *limit* entries of the pool's ranking (all for ``None``).

        Entries are ordered by decreasing Z-score, then by size
        (#disjuncts, #atoms) ascending, then by ``str(query)``, which
        includes the query's name (:meth:`_sort_key`), and entries equal
        on all three keep their pool order.

        Candidates are scored per **score class**.  When
        :meth:`QueryScorer.scores_by_counts` holds, a class is a
        (TP, FP, #disjuncts, #atoms) tuple, with (TP, FP) read from
        :meth:`~repro.engine.verdicts.VerdictMatrix.counts`.  Otherwise
        each candidate is its own class, which is plain per-candidate
        scoring.  The first member of a class is evaluated and the other
        members reuse its Z-score and criterion values.

        Whole classes are taken in (−Z, size) order until they hold
        *limit* entries, plus the classes tied with the last one taken.
        Only their members are ordered by ``str(query)``, and only the
        returned entries get a :class:`ScoredQuery` and a profile.  So
        ``rank(pool, k) == rank(pool)[:k]`` entry for entry
        (``tests/core/test_ranking.py``).  ``limit=0`` returns nothing;
        a negative *limit* raises :class:`ExplanationError`.
        """
        check_limit(limit)
        pool = list(candidates)
        scorer = self.scorer
        scorer.prepare(pool)
        by_counts = scorer.scores_by_counts()
        matrix = scorer.verdict_matrix() if by_counts else None
        classes: Dict[Tuple, List[int]] = {}
        for index, query in enumerate(pool):
            key = (matrix.counts(query) if by_counts else (index,)) + query_size(query)
            members = classes.get(key)
            if members is None:
                classes[key] = [index]
            else:
                members.append(index)
        # Class key -> ((−Z, size), Z, criterion values, profile), all
        # from the class's first member.
        class_scores = {}
        for key, members in classes.items():
            query = pool[members[0]]
            if by_counts:
                context = scorer.count_context(query, key[0], key[1])
            else:
                context = scorer.context_for(query)
            z_score, values = scorer.evaluate(context)
            class_scores[key] = ((-z_score, key[-2:]), z_score, values, context.profile)
        selected = []
        boundary = None
        for key in sorted(classes, key=lambda key: class_scores[key][0]):
            head = class_scores[key][0]
            if limit is not None and len(selected) >= limit and head != boundary:
                break
            boundary = head
            selected.extend((head, str(pool[index]), index, key) for index in classes[key])
        selected.sort()
        ranking = []
        for _head, _text, index, key in selected[:limit]:
            query = pool[index]
            _head, z_score, values, profile = class_scores[key]
            if by_counts:
                profile = matrix.profile(query)
            ranking.append(ScoredQuery(query, z_score, values, profile))
        return ranking

    @staticmethod
    def _sort_key(entry: ScoredQuery):
        """The ranking comparator over already scored entries."""
        return (-entry.score, query_size(entry.query), str(entry.query))

    def best(self, candidates: Iterable[OntologyQuery]) -> ScoredQuery:
        ranking = self.rank(candidates, limit=1)
        if not ranking:
            raise ExplanationError("no candidate queries to rank")
        return ranking[0]

    def top_k(self, candidates: Iterable[OntologyQuery], k: Optional[int]) -> List[ScoredQuery]:
        """The first *k* entries of the ranking: exactly ``rank(candidates, k)``.

        ``k=None`` ranks everything and ``k=0`` returns nothing; a
        negative ``k`` raises :class:`ExplanationError`.
        """
        return self.rank(candidates, k)

    # -- automatic candidate construction ----------------------------------------------

    def generate_candidates(self, config: Optional[CandidateConfig] = None) -> CandidatePool:
        generator = CandidateGenerator(
            self.system,
            self.radius,
            config,
            border_computer=self.evaluator.borders,
            evaluator=self.evaluator,
        )
        return generator.generate(self.labeling)

    def refine_candidates(
        self, config: Optional[RefinementConfig] = None
    ) -> List[ConjunctiveQuery]:
        search = RefinementSearch(self.system, self.scorer, config)
        return [query for query, _ in search.search()]

    def candidate_pool(
        self,
        strategy: str = "enumerate",
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        extra_candidates: Iterable[OntologyQuery] = (),
    ) -> CandidatePool:
        """The deduplicated candidate pool the chosen strategy produces.

        ``strategy`` is one of ``"enumerate"`` (bottom-up), ``"refine"``
        (top-down beam search) or ``"both"``.  Every request builds its
        pool here, so batch scoring ranks the identical pool.  The result
        is a plain list that also carries the bottom-up generator's
        accounting (:class:`~repro.core.candidates.CandidatePool`).
        """
        candidates: List[OntologyQuery] = list(extra_candidates)
        generated = truncated = unexplored = 0
        if strategy in ("enumerate", "both"):
            generated_pool = self.generate_candidates(candidate_config)
            candidates.extend(generated_pool)
            generated = generated_pool.generated
            truncated = generated_pool.truncated
            unexplored = generated_pool.unexplored_seeds
        if strategy in ("refine", "both"):
            candidates.extend(self.refine_candidates(refinement_config))
        if strategy not in ("enumerate", "refine", "both"):
            raise ExplanationError(
                f"unknown search strategy {strategy!r}; expected enumerate/refine/both"
            )
        seen: Set[Tuple] = set()
        unique: List[OntologyQuery] = []
        for candidate in candidates:
            key = query_key(candidate)
            if key not in seen:
                seen.add(key)
                unique.append(candidate)
        return CandidatePool(
            unique,
            generated=generated,
            truncated=truncated,
            unexplored_seeds=unexplored,
        )

    def search(
        self,
        strategy: str = "enumerate",
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        extra_candidates: Iterable[OntologyQuery] = (),
        top_k: Optional[int] = None,
    ) -> List[ScoredQuery]:
        """Build a candidate pool with the chosen strategy and rank it.

        ``rank(candidate_pool(...), top_k)``: the first *top_k* entries,
        or the whole ranking for ``None``.
        """
        pool = self.candidate_pool(
            strategy, candidate_config, refinement_config, extra_candidates
        )
        return self.rank(pool, top_k)

    # -- UCQ construction -----------------------------------------------------------------

    def best_ucq(
        self,
        cq_candidates: Sequence[ConjunctiveQuery],
        max_disjuncts: int = 4,
    ) -> ScoredQuery:
        """Greedy construction of the best union of CQs.

        Starts from the best single CQ and adds, at each step, the
        disjunct that maximises the Z-score of the union; stops when no
        addition improves the score or ``max_disjuncts`` is reached.
        """
        if not cq_candidates:
            raise ExplanationError("no CQ candidates supplied for UCQ construction")
        ranking = self.rank(list(cq_candidates))
        best_single = ranking[0]
        chosen: List[ConjunctiveQuery] = [best_single.query]  # type: ignore[list-item]
        best_scored = self.scorer.score(UnionOfConjunctiveQueries(tuple(chosen)))
        improved = True
        while improved and len(chosen) < max_disjuncts:
            improved = False
            best_extension: Optional[ScoredQuery] = None
            best_addition: Optional[ConjunctiveQuery] = None
            for entry in ranking:
                candidate = entry.query
                if not isinstance(candidate, ConjunctiveQuery) or candidate in chosen:
                    continue
                union = UnionOfConjunctiveQueries(tuple(chosen + [candidate]))
                scored_union = self.scorer.score(union)
                if best_extension is None or scored_union.score > best_extension.score:
                    best_extension = scored_union
                    best_addition = candidate
            if best_extension is not None and best_extension.score > best_scored.score:
                chosen.append(best_addition)  # type: ignore[arg-type]
                best_scored = best_extension
                improved = True
        return best_scored
