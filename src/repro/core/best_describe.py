"""Searching for the ``L_O``-best describing query (Definition 3.7).

A query *best describes* ``λ`` w.r.t. an OBDM system, a radius, a set of
criteria ``Δ``, functions ``F`` and an expression ``Z`` when no other
query of the language has a strictly higher Z-score.  Since the language
is infinite, the implementation searches a finite candidate space built
by the bottom-up generator (:mod:`repro.core.candidates`), the top-down
refinement search (:mod:`repro.core.refinement`), or an explicit list
supplied by the caller, and returns the maximiser over that space
together with the full ranking.

For ``L_O = UCQ`` the search additionally builds unions greedily: it
starts from the best CQ and keeps adding the disjunct that most improves
the Z-score (criterion δ6 naturally counterbalances unions that grow too
large).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..errors import CriterionError, ExplanationError, ScoringError, SearchBudgetExceeded
from ..obdm.certain_answers import OntologyQuery
from ..obdm.system import OBDMSystem
from ..queries.atoms import Atom
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
from .scoring import (
    MONOTONE_EXPRESSION_TYPES,
    ScoringExpression,
    example_3_8_expression,
)


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


class QueryScorer:
    """Evaluates Δ, F and Z for queries against one labeling.

    Match profiles come from one of two interchangeable paths:

    * the **bitset path** (default) — a shared
      :class:`~repro.engine.verdicts.VerdictMatrix` holds one verdict
      bitset per candidate and profiles are popcount views over rows;
    * the **per-pair oracle** — ``MatchEvaluator.profile`` asks one
      (query, border) Definition 3.4 question at a time; it is the
      reference the bitset path is tested against.

    The engine-level switch ``specification.engine.verdicts.enabled``
    selects the path; *use_verdict_matrix* overrides it per scorer.  The
    two are verdict-for-verdict identical (pinned by the differential
    suites), so the choice only affects speed.
    """

    def __init__(
        self,
        evaluator: MatchEvaluator,
        labeling: Labeling,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        use_verdict_matrix: Optional[bool] = None,
        matrix=None,
    ):
        self.evaluator = evaluator
        self.labeling = labeling
        self.criteria = registry.resolve(criteria)
        self.expression = expression or example_3_8_expression()
        self._use_verdict_matrix = use_verdict_matrix
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
        if self._use_verdict_matrix is not None:
            return self._use_verdict_matrix
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

    def score(self, query: OntologyQuery) -> ScoredQuery:
        """Compute the Z-score (and criterion breakdown) of one query."""
        context = self.context_for(query)
        values = evaluate_criteria(self.criteria, context)
        z_score = self.expression.score(values)
        return ScoredQuery(
            query=query,
            score=z_score,
            criterion_values=tuple(sorted(values.items())),
            profile=context.profile,
        )

    def score_value(self, query: OntologyQuery) -> float:
        return self.score(query).score

    # -- optimistic bounds (top-k pruning) -------------------------------

    def optimistic_score(self, query: OntologyQuery) -> float:
        """An upper bound of ``score(query).score``, without exact J-matching.

        The kernel's per-atom provenance bound
        (:meth:`~repro.engine.verdicts.VerdictMatrix.upper_bound_row`)
        caps how many positives/negatives the query *could* match; the
        true (TP, FP) pair then lies in a box whose corners are
        evaluated through the real criteria and expression.  Every
        built-in criterion is componentwise monotone in (TP, FP) and
        every built-in expression is componentwise monotone in its
        criterion values, so the maximum over the corner assignments
        bounds the true Z-score — for *those* configurations only,
        which is why :meth:`BestDescriptionSearch._prunes` gates
        pruning on ``MONOTONE_CRITERIA`` / ``MONOTONE_EXPRESSION_TYPES``.
        Only meaningful on the kernel-backed bitset path.
        """
        matrix = self.verdict_matrix()
        columns = matrix.columns
        bound = matrix.upper_bound_row(query)
        bound_tp = (bound & columns.positives_mask).bit_count()
        bound_fp = (bound & columns.negatives_mask).bit_count()
        positives, negatives = columns.positive_count, columns.negative_count
        lows: Dict[str, float] = {}
        highs: Dict[str, float] = {}
        for tp, fp in {(t, f) for t in {0, bound_tp} for f in {0, bound_fp}}:
            profile = CountProfile(tp, positives - tp, fp, negatives - fp)
            context = EvaluationContext(query, profile, self.labeling, self.evaluator.radius)
            for criterion in self.criteria:
                value = criterion.evaluate(context)
                key = criterion.key
                lows[key] = value if key not in lows else min(lows[key], value)
                highs[key] = value if key not in highs else max(highs[key], value)
        varying = [key for key in lows if lows[key] != highs[key]]
        best = -math.inf
        for corner in itertools.product(*((lows[key], highs[key]) for key in varying)):
            values = dict(lows)
            values.update(zip(varying, corner))
            best = max(best, self.expression.score(values))
        return best

    def zero_row_ceiling(self) -> float:
        """An upper bound of the Z-score of *any* zero-verdict-row query.

        Generator-level pruning drops candidates whose verdict row is
        provably zero, i.e. whose profile is exactly
        ``CountProfile(0, P, 0, N)``.  Their profile-based criterion
        values are therefore all identical; only the syntax criteria
        (δ5 = 1/#atoms, δ6 = 1/#disjuncts) vary with the dropped query,
        and both live in ``(0, 1]``, so the maximum of the (monotone)
        expression over the ``{0, 1}`` corners of those two dimensions
        bounds every dropped candidate's score.  Only called behind
        :meth:`BestDescriptionSearch._prunes`, whose
        ``MONOTONE_CRITERIA`` gate guarantees δ5/δ6 are the only
        query-syntax criteria in Δ.
        """
        columns = self.verdict_matrix().columns
        profile = CountProfile(
            0, columns.positive_count, 0, columns.negative_count
        )
        placeholder = ConjunctiveQuery.of(
            ("?x",), (Atom.of("__zero_row__", "?x"),)
        )
        context = EvaluationContext(
            placeholder, profile, self.labeling, self.evaluator.radius
        )
        fixed: Dict[str, float] = {}
        varying: List[str] = []
        for criterion in self.criteria:
            if criterion.key in ("delta5", "delta6"):
                varying.append(criterion.key)
            else:
                fixed[criterion.key] = criterion.evaluate(context)
        best = -math.inf
        for corner in itertools.product((0.0, 1.0), repeat=len(varying)):
            values = dict(fixed)
            values.update(zip(varying, corner))
            best = max(best, self.expression.score(values))
        return best


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

    def rank(self, candidates: Iterable[OntologyQuery]) -> List[ScoredQuery]:
        """Score every candidate and sort by decreasing Z-score.

        Ties are broken towards syntactically smaller queries (fewer
        atoms), then lexicographically, so results are deterministic.
        """
        pool = list(candidates)
        self.scorer.prepare(pool)
        scored = [self.scorer.score(candidate) for candidate in pool]
        scored.sort(key=self._sort_key)
        return scored

    @staticmethod
    def _sort_key(entry: ScoredQuery):
        query = entry.query
        if isinstance(query, UnionOfConjunctiveQueries):
            size = (query.disjunct_count(), query.atom_count())
        else:
            size = (1, query.atom_count())
        return (-entry.score, size, str(query))

    def best(self, candidates: Iterable[OntologyQuery]) -> ScoredQuery:
        ranking = self.rank(candidates)
        if not ranking:
            raise ExplanationError("no candidate queries to rank")
        return ranking[0]

    # -- top-k bound pruning ----------------------------------------------

    def _prunes(self) -> bool:
        """Whether the kernel-backed bound-pruning path is sound here.

        Requires the bitset path *and* a provably componentwise-monotone
        (Δ, Z) configuration: the optimistic
        bound evaluates criteria and expression only at corner
        assignments, which bounds the true score exactly for the
        built-in monotone criteria/expressions and for nothing else —
        a custom criterion peaked at an interior (TP, FP) point would
        make pruning silently drop true top-k entries, so any custom
        configuration ranks exhaustively instead.
        """
        return (
            self.scorer.uses_verdict_matrix
            and type(self.scorer.expression) in MONOTONE_EXPRESSION_TYPES
            and all(
                criterion in MONOTONE_CRITERIA for criterion in self.scorer.criteria
            )
        )

    def top_k(self, candidates: Iterable[OntologyQuery], k: int) -> List[ScoredQuery]:
        """Exactly ``rank(candidates)[:k]``, skipping provably losing candidates.

        Candidates are visited in decreasing order of their optimistic
        Z-score (:meth:`QueryScorer.optimistic_score`); once ``k`` exact
        scores are known, any candidate whose optimistic bound is
        *strictly* below the current k-th exact score cannot reach the
        top ``k`` (even via tie-breaking, since ties require an equal
        score) and skips exact evaluation entirely — no verdict row is
        built for it.  Survivors are sorted with the exhaustive
        comparator, so the result is identical to the exhaustive
        ranking's prefix; ``benchmarks/bench_match_kernel.py`` gates
        that equality.  ``k=None`` ranks everything and ``k=0`` returns
        nothing; a negative ``k`` raises :class:`ExplanationError`.
        """
        if k is not None and k < 0:
            raise ExplanationError(f"top_k must be None or >= 0, got {k}")
        pool = list(candidates)
        if k is None or k >= len(pool) or k == 0 or not self._prunes():
            return self.rank(pool)[:k]
        try:
            bounds = [self.scorer.optimistic_score(query) for query in pool]
        except (CriterionError, ScoringError):
            # Custom criteria reading tuple sets (CountProfile raises
            # CriterionError for those) or rejecting the corner profiles
            # cannot be bounded; rank exhaustively instead.  Anything
            # else propagates — a bug in the bound computation must not
            # silently degrade into a permanent no-prune fallback.
            return self.rank(pool)[:k]
        order = sorted(range(len(pool)), key=lambda index: (-bounds[index], index))
        exact_scores: List[float] = []  # min-heap of the k best exact scores
        evaluated: List[ScoredQuery] = []
        for index in order:
            if len(exact_scores) >= k and bounds[index] < exact_scores[0]:
                break  # bounds are non-increasing: every later candidate loses too
            scored = self.scorer.score(pool[index])
            evaluated.append(scored)
            if len(exact_scores) < k:
                heapq.heappush(exact_scores, scored.score)
            else:
                heapq.heappushpop(exact_scores, scored.score)
        evaluated.sort(key=self._sort_key)
        return evaluated[:k]

    # -- automatic candidate construction ----------------------------------------------

    def generate_candidates(
        self, config: Optional[CandidateConfig] = None, pruner=None
    ) -> CandidatePool:
        generator = CandidateGenerator(
            self.system,
            self.radius,
            config,
            border_computer=self.evaluator.borders,
            evaluator=self.evaluator,
        )
        return generator.generate(self.labeling, pruner=pruner)

    def refine_candidates(
        self, config: Optional[RefinementConfig] = None, pruner=None
    ) -> List[ConjunctiveQuery]:
        search = RefinementSearch(
            self.system,
            self.labeling,
            self.evaluator,
            score_function=self.scorer.score_value,
            config=config,
            pruner=pruner,
        )
        return [query for query, _ in search.search()]

    def _generator_pruner(self):
        """A provenance pruner for candidate generation, when sound here.

        Same gate as bound pruning (:meth:`_prunes`): the pruner's
        soundness argument leans on all zero-row candidates scoring at
        or below :meth:`QueryScorer.zero_row_ceiling`, which only holds
        for the monotone built-in (Δ, Z) configurations.
        """
        if not self._prunes():
            return None
        return self.scorer.verdict_matrix().pruner()

    def candidate_pool(
        self,
        strategy: str = "enumerate",
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        extra_candidates: Iterable[OntologyQuery] = (),
        pruner=None,
    ) -> CandidatePool:
        """The deduplicated candidate pool the chosen strategy produces.

        ``strategy`` is one of ``"enumerate"`` (bottom-up), ``"refine"``
        (top-down beam search) or ``"both"``.  Extracted from
        :meth:`search` so batch scoring can build the identical pool and
        score it concurrently.  The result is a plain list that also
        carries the bottom-up generator's accounting
        (:class:`~repro.core.candidates.CandidatePool`); with a *pruner*
        the generator and the refinement beam both skip provably
        zero-row candidates before materialisation.
        """
        candidates: List[OntologyQuery] = list(extra_candidates)
        generated = truncated = pruned = checked = unexplored = 0
        if strategy in ("enumerate", "both"):
            generated_pool = self.generate_candidates(candidate_config, pruner=pruner)
            candidates.extend(generated_pool)
            generated = generated_pool.generated
            truncated = generated_pool.truncated
            pruned = generated_pool.pruned
            checked = generated_pool.checked
            unexplored = generated_pool.unexplored_seeds
        if strategy in ("refine", "both"):
            candidates.extend(self.refine_candidates(refinement_config, pruner=pruner))
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
            pruned=pruned,
            checked=checked,
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

        With *top_k* on the kernel path, bound pruning skips candidates
        that provably cannot reach the top ``k`` — the returned prefix
        is identical to the exhaustive ranking's either way.  Candidate
        *generation* is additionally pruned through the kernel's
        provenance bounds: conjunctions whose AND-of-supports is zero
        are never materialised.  Dropping them is only accepted when the
        result is provably the exhaustive prefix — the k-th exact score
        must be strictly above :meth:`QueryScorer.zero_row_ceiling` (all
        dropped candidates score at or below it) and the
        ``max_candidates`` cutoff must provably not have interacted with
        pruning; otherwise the pool is regenerated exhaustively.
        """
        pruner = self._generator_pruner() if top_k is not None else None
        if pruner is not None:
            config = candidate_config or CandidateConfig()
            pool = self.candidate_pool(
                strategy,
                candidate_config,
                refinement_config,
                extra_candidates,
                pruner=pruner,
            )
            if pool.pruned == 0:
                # Nothing was dropped, so the pool IS the exhaustive pool.
                return self.top_k(pool, top_k)
            certified = (
                pool.exhausted
                and pool.generated + pool.pruned <= config.max_candidates
            )
            if certified:
                try:
                    ceiling = self.scorer.zero_row_ceiling()
                except (CriterionError, ScoringError):
                    ceiling = None
                if ceiling is not None:
                    ranking = self.top_k(pool, top_k)
                    if len(ranking) == top_k and ranking[-1].score > ceiling:
                        return ranking
            # Fall through: the pruned pool cannot be certified top-k
            # equivalent (truncation may have interacted with pruning, or
            # a zero-row candidate could still reach the top k), so the
            # pool is regenerated without the pruner.
        pool = self.candidate_pool(
            strategy, candidate_config, refinement_config, extra_candidates
        )
        if top_k is not None and self._prunes():
            return self.top_k(pool, top_k)
        ranking = self.rank(pool)
        return ranking[:top_k] if top_k is not None else ranking

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
