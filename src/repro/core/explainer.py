"""The public façade of the explanation framework.

:class:`OntologyExplainer` ties the whole pipeline together: borders,
J-matching, criteria, scoring, candidate generation and ranking.  A
typical use looks like::

    explainer = OntologyExplainer(system)                # Σ = <J, D>
    report = explainer.explain(
        labeling,                                        # λ+ / λ-
        radius=1,
        criteria=("delta1", "delta4", "delta5"),
        expression=example_3_8_expression(alpha=3),
    )
    print(report.render())

which mirrors the ingredients of Definition 3.7: the OBDM system, the
radius ``r``, the criteria ``Δ`` with their functions ``F`` and the
expression ``Z``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from ..engine.verdicts import VerdictMatrix
from ..errors import ExplanationError
from ..obdm.certain_answers import OntologyQuery
from ..obdm.system import OBDMSystem
from ..queries.parser import parse_query
from .best_describe import BestDescriptionSearch, ScoredQuery, check_limit
from .border import BorderComputer
from .candidates import CandidateConfig
from .criteria import DEFAULT_REGISTRY, DELTA_1, DELTA_4, DELTA_5, Criterion, CriteriaRegistry
from .labeling import Labeling
from .matching import MatchEvaluator, MatchProfile
from .refinement import RefinementConfig
from .report import Explanation, ExplanationReport, build_report
from .scoring import ScoringExpression, describe_expression, example_3_8_expression
from .separability import SeparabilityChecker, SeparabilityResult


def execute_search(
    search: BestDescriptionSearch,
    expression: ScoringExpression,
    candidates: Optional[Iterable[Union[str, OntologyQuery]]] = None,
    strategy: str = "enumerate",
    candidate_config: Optional[CandidateConfig] = None,
    refinement_config: Optional[RefinementConfig] = None,
    top_k: Optional[int] = 10,
) -> ExplanationReport:
    """Rank one request's candidate pool and assemble its report.

    The shared tail of every explanation request —
    :meth:`OntologyExplainer.explain` and
    :meth:`repro.service.ExplanationService.explain` both delegate here,
    which is what keeps the service's "semantically identical to a fresh
    explainer" contract structural rather than copy-paste.  The pool is
    the parsed *candidates*, or else the one *strategy* builds
    (:meth:`BestDescriptionSearch.candidate_pool`).  The ranking keeps
    only its first *top_k* entries (``rank(pool, limit=top_k)``); the
    report still counts the whole pool as scored.  A negative *top_k* is
    refused before any pool is built.
    """
    check_limit(top_k)
    if candidates is not None:
        pool = [
            parse_query(candidate) if isinstance(candidate, str) else candidate
            for candidate in candidates
        ]
    else:
        pool = search.candidate_pool(strategy, candidate_config, refinement_config)
    ranking = search.rank(pool, limit=top_k)
    criteria_keys = [criterion.key for criterion in search.scorer.criteria]
    return build_report(
        search.labeling,
        search.radius,
        criteria_keys,
        describe_expression(expression),
        ranking,
        len(pool),
        top_k=top_k,
    )


class OntologyExplainer:
    """Explains a binary classifier through queries over the ontology."""

    def __init__(self, system: OBDMSystem):
        self.system = system
        self._border_computer = BorderComputer(system.database)

    # -- low-level building blocks ------------------------------------------------

    def evaluator(self, radius: int = 1) -> MatchEvaluator:
        """A J-matching evaluator bound to this system and radius."""
        return MatchEvaluator(self.system, radius, self._border_computer)

    def profile(self, query: Union[str, OntologyQuery], labeling: Labeling, radius: int = 1) -> MatchProfile:
        """Match profile of one query (textual queries are parsed)."""
        parsed = self._parse(query)
        return self.evaluator(radius).profile(parsed, labeling)

    def score(
        self,
        query: Union[str, OntologyQuery],
        labeling: Labeling,
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
    ) -> ScoredQuery:
        """Z-score of one query under (Δ, F, Z)."""
        search = BestDescriptionSearch(
            self.system, labeling, radius, criteria, expression, registry, self._border_computer
        )
        return search.scorer.score(self._parse(query))

    # -- the main entry point -----------------------------------------------------------

    def explain(
        self,
        labeling: Labeling,
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        strategy: str = "enumerate",
        candidates: Optional[Iterable[Union[str, OntologyQuery]]] = None,
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        top_k: Optional[int] = 10,
    ) -> ExplanationReport:
        """Search for the queries that best describe ``λ`` (Definition 3.7).

        When *candidates* is given, only those queries are scored (the
        automatic generators are skipped); otherwise the pool is built by
        the chosen *strategy* (``enumerate``, ``refine`` or ``both``).
        """
        expression = expression or example_3_8_expression()
        search = BestDescriptionSearch(
            self.system, labeling, radius, criteria, expression, registry, self._border_computer
        )
        return execute_search(
            search,
            expression,
            candidates=candidates,
            strategy=strategy,
            candidate_config=candidate_config,
            refinement_config=refinement_config,
            top_k=top_k,
        )

    def explain_batch(
        self,
        labelings: Sequence[Labeling],
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        strategy: str = "enumerate",
        candidates: Optional[Iterable[Union[str, OntologyQuery]]] = None,
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        top_k: Optional[int] = 10,
    ) -> List[ExplanationReport]:
        """Explain many labelings: one report per labeling, in order.

        Each report is the one :meth:`explain` returns for that labeling
        with the same arguments.  All pools are built first (the parsed
        *candidates*, shared, or each labeling's *strategy* pool); on
        the bitset path one
        :meth:`~repro.engine.verdicts.VerdictMatrix.build_batch` call
        fills their rows, enumerating the union of the labelings'
        borders once, and :func:`execute_search` then ranks each
        labeling over rows already filled.
        """
        check_limit(top_k)
        expression = expression or example_3_8_expression()
        parsed = None if candidates is None else [self._parse(c) for c in candidates]
        searches = [
            BestDescriptionSearch(
                self.system, labeling, radius, criteria, expression, registry, self._border_computer
            )
            for labeling in labelings
        ]
        pools = [
            parsed
            if parsed is not None
            else search.candidate_pool(strategy, candidate_config, refinement_config)
            for search in searches
        ]
        filled = [
            (search.scorer.verdict_matrix(), pool)
            for search, pool in zip(searches, pools)
            if search.scorer.uses_verdict_matrix
        ]
        if filled:
            VerdictMatrix.build_batch(*zip(*filled))
        return [
            execute_search(search, expression, candidates=pool, top_k=top_k)
            for search, pool in zip(searches, pools)
        ]

    def service(self, **kwargs) -> "ExplanationService":
        """A long-lived :class:`~repro.service.ExplanationService` over Σ.

        The service shares this explainer's system (and therefore its
        specification's evaluation cache); keyword arguments are passed
        through (``radius``, ``criteria``, ``expression``,
        ``cache_limits``, ``max_sessions``).  Use it when the same
        system must answer many ``explain`` requests: repeated and
        drifting labelings are then served from warm verdict matrices
        instead of rebuilt per call.
        """
        from ..service import ExplanationService

        return ExplanationService(self.system, **kwargs)

    def best_query(
        self,
        labeling: Labeling,
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        **kwargs,
    ) -> Explanation:
        """Convenience wrapper returning only the top-ranked explanation."""
        report = self.explain(labeling, radius, criteria, expression, **kwargs)
        if report.best is None:
            raise ExplanationError("the search produced no candidate explanations")
        return report.best

    # -- separability ---------------------------------------------------------------------

    def separability(
        self,
        labeling: Labeling,
        radius: int = 1,
        candidates: Optional[Iterable[Union[str, OntologyQuery]]] = None,
        exact: bool = True,
    ) -> SeparabilityResult:
        """Is there a query satisfying conditions (1) and (2) of Section 3?

        With ``exact=True`` the product-homomorphism decision procedure is
        used (complete for CQs under the border semantics); candidate
        queries, when supplied, are tried first since a concrete witness
        is more informative than the canonical product query.  Each
        supplied candidate is parsed and profiled exactly once, whatever
        the flags.
        """
        checker = SeparabilityChecker(self.system, labeling, radius, self.evaluator(radius))
        candidate_result: Optional[SeparabilityResult] = None
        if candidates is not None:
            candidate_result = checker.check_candidates([self._parse(c) for c in candidates])
            if candidate_result.separable:
                return candidate_result
        if exact:
            return checker.decide_cq_separability()
        if candidate_result is not None:
            return candidate_result
        return checker.check_candidates([])

    # -- helpers ------------------------------------------------------------------------------

    @staticmethod
    def _parse(query: Union[str, OntologyQuery]) -> OntologyQuery:
        if isinstance(query, str):
            return parse_query(query)
        return query
