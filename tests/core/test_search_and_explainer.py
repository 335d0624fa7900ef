"""Tests for candidate generation, refinement, best-description search,
separability and the OntologyExplainer façade (Definition 3.7, Example 3.8)."""

import pytest

from repro.core.best_describe import BestDescriptionSearch, QueryScorer, ScoredQuery
from repro.core.candidates import CandidateConfig, CandidateGenerator
from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.core.refinement import RefinementConfig, RefinementSearch
from repro.core.report import Explanation, ExplanationReport
from repro.core.scoring import example_3_8_expression
from repro.core.separability import SeparabilityChecker
from repro.errors import ExplanationError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.queries.ucq import UnionOfConjunctiveQueries


class TestExample38Scores:
    """The Z-scores of Example 3.8, computed through the public API."""

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ((1, 1, 1), {"q1": 0.694, "q2": 0.5, "q3": 0.833}),
            ((3, 1, 1), {"q1": 0.717, "q2": 0.5, "q3": 0.7}),
        ],
    )
    def test_scores(self, university_explainer, university_labeling, university_queries, weights, expected):
        expression = example_3_8_expression(*weights)
        for name, query in university_queries.items():
            scored = university_explainer.score(
                query, university_labeling, radius=1, expression=expression
            )
            assert scored.score == pytest.approx(expected[name], abs=0.002)

    def test_paper_winner_equal_weights(self, university_explainer, university_labeling, university_queries):
        report = university_explainer.explain(
            university_labeling,
            radius=1,
            expression=example_3_8_expression(1, 1, 1),
            candidates=list(university_queries.values()),
        )
        assert str(report.best.query).startswith("q3")

    def test_paper_winner_alpha_3(self, university_explainer, university_labeling, university_queries):
        report = university_explainer.explain(
            university_labeling,
            radius=1,
            expression=example_3_8_expression(3, 1, 1),
            candidates=list(university_queries.values()),
        )
        assert str(report.best.query).startswith("q1")


class TestCandidateGenerator:
    def test_pool_contains_paper_queries(self, university_system, university_labeling):
        generator = CandidateGenerator(
            university_system, radius=1, config=CandidateConfig(max_atoms=3, max_candidates=2000)
        )
        pool = generator.generate(university_labeling)
        signatures = {query.signature() for query in pool}
        q2 = parse_cq("q(x) :- studies(x, 'Math')")
        q3 = parse_cq("q(x) :- likes(x, 'Science')")
        assert q2.signature() in signatures
        assert q3.signature() in signatures

    def test_pool_respects_max_atoms(self, university_system, university_labeling):
        generator = CandidateGenerator(
            university_system, radius=1, config=CandidateConfig(max_atoms=2, max_candidates=500)
        )
        pool = generator.generate(university_labeling)
        assert pool and all(query.atom_count() <= 2 for query in pool)

    def test_pool_respects_cap(self, university_system, university_labeling):
        generator = CandidateGenerator(
            university_system, radius=1, config=CandidateConfig(max_candidates=10)
        )
        assert len(generator.generate(university_labeling)) <= 10

    def test_all_candidates_have_labeling_arity(self, university_system, university_labeling):
        generator = CandidateGenerator(university_system, radius=1)
        pool = generator.generate(university_labeling)
        assert all(query.arity == university_labeling.arity for query in pool)

    def test_most_specific_query_option(self, university_system, university_labeling):
        generator = CandidateGenerator(
            university_system,
            radius=1,
            config=CandidateConfig(include_most_specific=True, max_candidates=3000),
        )
        pool = generator.generate(university_labeling)
        assert max(query.atom_count() for query in pool) >= 3


class TestRefinementSearch:
    def test_beam_search_finds_good_query(self, university_system, university_labeling):
        evaluator = MatchEvaluator(university_system, 1)
        search = BestDescriptionSearch(university_system, university_labeling)
        refinement = RefinementSearch(
            university_system,
            university_labeling,
            evaluator,
            score_function=search.scorer.score_value,
            config=RefinementConfig(beam_width=6, max_atoms=2, max_iterations=3),
        )
        results = refinement.search()
        assert results
        best_query, best_score = results[0]
        assert best_score >= 0.8  # likes(x, 'Science') scores 0.833

    def test_initial_queries_are_single_atoms(self, university_system, university_labeling):
        evaluator = MatchEvaluator(university_system, 1)
        search = BestDescriptionSearch(university_system, university_labeling)
        refinement = RefinementSearch(
            university_system, university_labeling, evaluator, search.scorer.score_value
        )
        assert all(query.atom_count() == 1 for query in refinement.initial_queries())

    def test_non_unary_labeling_rejected(self, university_system):
        binary = Labeling([("A10", "Math")], [("E25", "Math")])
        evaluator = MatchEvaluator(university_system, 1)
        with pytest.raises(ExplanationError):
            RefinementSearch(university_system, binary, evaluator, lambda q: 0.0)


class TestBestDescriptionSearch:
    def test_rank_is_sorted_and_deterministic(self, university_system, university_labeling, university_queries):
        search = BestDescriptionSearch(university_system, university_labeling)
        ranking = search.rank(list(university_queries.values()))
        scores = [entry.score for entry in ranking]
        assert scores == sorted(scores, reverse=True)
        again = search.rank(list(university_queries.values()))
        assert [str(e.query) for e in ranking] == [str(e.query) for e in again]

    def test_best_requires_candidates(self, university_system, university_labeling):
        search = BestDescriptionSearch(university_system, university_labeling)
        with pytest.raises(ExplanationError):
            search.best([])

    def test_expression_criteria_consistency_checked(self, university_system, university_labeling):
        with pytest.raises(ExplanationError):
            BestDescriptionSearch(
                university_system,
                university_labeling,
                criteria=("delta1",),
                expression=example_3_8_expression(),
            )

    def test_search_enumerate_beats_paper_queries(self, university_system, university_labeling, university_queries):
        search = BestDescriptionSearch(university_system, university_labeling)
        ranking = search.search(
            strategy="enumerate",
            candidate_config=CandidateConfig(max_atoms=2, max_candidates=300),
            extra_candidates=list(university_queries.values()),
        )
        assert ranking[0].score >= 0.833 - 1e-9

    def test_unknown_strategy_rejected(self, university_system, university_labeling):
        search = BestDescriptionSearch(university_system, university_labeling)
        with pytest.raises(ExplanationError):
            search.search(strategy="magic")

    def test_best_ucq_improves_or_matches_best_cq(self, university_system, university_labeling):
        search = BestDescriptionSearch(
            university_system,
            university_labeling,
            criteria=("delta1", "delta4", "delta6"),
            expression=example_3_8_expression(2, 2, 1).__class__.of(
                {"delta1": 2.0, "delta4": 2.0, "delta6": 1.0}
            ),
        )
        cqs = [
            parse_cq("q(x) :- studies(x, 'Math')"),
            parse_cq("q(x) :- likes(x, 'Science')"),
            parse_cq("q(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, 'Rome')"),
        ]
        best_cq = search.best(cqs)
        best_union = search.best_ucq(cqs, max_disjuncts=3)
        assert best_union.score >= best_cq.score
        if isinstance(best_union.query, UnionOfConjunctiveQueries):
            assert best_union.query.disjunct_count() <= 3


class TestSeparability:
    def test_paper_claim_no_perfect_cq(self, university_system, university_labeling):
        checker = SeparabilityChecker(university_system, university_labeling, radius=1)
        result = checker.decide_cq_separability()
        assert result.separable is False

    def test_candidate_based_check(self, university_system, university_labeling, university_queries):
        checker = SeparabilityChecker(university_system, university_labeling, radius=1)
        assert checker.find_separator(university_queries.values()) is None
        result = checker.check_candidates(university_queries.values())
        assert result.separable is None  # inconclusive, not a proof

    def test_separable_case_with_witness(self, university_system):
        # Rome-students vs a Milan-student IS separable by q1.
        labeling = Labeling(["A10", "B80", "D50"], ["E25", "C12"])
        checker = SeparabilityChecker(university_system, labeling, radius=1)
        result = checker.decide_cq_separability()
        assert result.separable is True
        # The canonical witness necessarily exploits the Rome location,
        # which is what distinguishes the positives from the negatives.
        assert result.witness is not None
        assert "locatedIn" in str(result.witness)

    def test_check_query_against_paper_queries(self, university_system, university_labeling, university_queries):
        checker = SeparabilityChecker(university_system, university_labeling, radius=1)
        assert not checker.check_query(university_queries["q1"])


class TestOntologyExplainerFacade:
    def test_explain_with_generated_candidates(self, university_explainer, university_labeling):
        report = university_explainer.explain(
            university_labeling,
            radius=1,
            candidate_config=CandidateConfig(max_atoms=2, max_candidates=200),
            top_k=5,
        )
        assert isinstance(report, ExplanationReport)
        assert 1 <= len(report) <= 5
        assert report.best.score >= 0.833 - 1e-9
        assert report.best.rank == 1

    def test_explain_with_textual_candidates(self, university_explainer, university_labeling):
        report = university_explainer.explain(
            university_labeling,
            candidates=[
                "q1(x) :- studies(x, y), taughtIn(y, z), locatedIn(z, 'Rome')",
                "q2(x) :- studies(x, 'Math')",
            ],
        )
        assert len(report) == 2

    def test_best_query_wrapper(self, university_explainer, university_labeling):
        best = university_explainer.best_query(
            university_labeling,
            candidates=["q3(x) :- likes(x, 'Science')"],
        )
        assert isinstance(best, Explanation)
        assert best.is_perfect() is False

    def test_profile_accepts_text(self, university_explainer, university_labeling):
        profile = university_explainer.profile(
            "q(x) :- studies(x, 'Math')", university_labeling
        )
        assert profile.true_positives == 2

    def test_separability_entry_point(self, university_explainer, university_labeling):
        result = university_explainer.separability(university_labeling, radius=1)
        assert result.separable is False

    def test_report_rendering_and_rows(self, university_explainer, university_labeling, university_queries):
        report = university_explainer.explain(
            university_labeling, candidates=list(university_queries.values())
        )
        text = report.render()
        assert "Explanation report" in text and "q3" in text
        rows = report.to_rows()
        assert len(rows) == 3
        assert {"rank", "score", "query"} <= set(rows[0])


class TestSeparabilityEvaluatesCandidatesOnce:
    """Regression: exact=False used to parse and profile candidates twice."""

    def _count_check_query(self, monkeypatch):
        calls = []
        original = SeparabilityChecker.check_query

        def counting(checker, query):
            calls.append(str(query))
            return original(checker, query)

        monkeypatch.setattr(SeparabilityChecker, "check_query", counting)
        return calls

    def test_candidates_profiled_exactly_once(
        self, university_explainer, university_labeling, university_queries, monkeypatch
    ):
        calls = self._count_check_query(monkeypatch)
        result = university_explainer.separability(
            university_labeling,
            radius=1,
            candidates=list(university_queries.values()),
            exact=False,
        )
        assert len(calls) == len(university_queries)
        assert result.separable is None
        assert result.method == "candidates"

    def test_no_candidates_means_no_evaluation(
        self, university_explainer, university_labeling, monkeypatch
    ):
        calls = self._count_check_query(monkeypatch)
        result = university_explainer.separability(
            university_labeling, radius=1, candidates=None, exact=False
        )
        assert calls == []
        assert result.separable is None
        assert result.method == "candidates"

    def test_exact_decision_unaffected(self, university_explainer, university_labeling):
        result = university_explainer.separability(university_labeling, radius=1, exact=True)
        assert result.separable is False


class TestNegativeTopK:
    """A negative ``top_k`` is refused on every report path.

    Slicing ``ranking[:-1]`` used to drop the last explanation silently;
    ``None`` (everything) and ``0`` (nothing) keep their meaning.
    """

    @pytest.fixture()
    def probe(self):
        from repro.experiments.kernel_exp import build_probe_system, probe_labeling, probe_pool

        system = build_probe_system("university")
        return system, probe_labeling(system), probe_pool(system)

    def test_service_refuses_negative_top_k(self, probe):
        from repro.service import ExplanationService

        system, labeling, pool = probe
        service = ExplanationService(system)
        assert len(service.explain(labeling, candidates=pool, top_k=None).explanations) == 2
        assert service.explain(labeling, candidates=pool, top_k=0).explanations == ()
        with pytest.raises(ExplanationError):
            service.explain(labeling, candidates=pool, top_k=-1)

    def test_explainer_and_batch_refuse_negative_top_k(self, probe):
        system, labeling, pool = probe
        explainer = OntologyExplainer(system)
        assert len(explainer.explain(labeling, candidates=pool, top_k=None).explanations) == 2
        with pytest.raises(ExplanationError):
            explainer.explain(labeling, candidates=pool, top_k=-1)
        [everything] = explainer.explain_batch([labeling], candidates=pool, top_k=None)
        assert len(everything.explanations) == 2
        with pytest.raises(ExplanationError):
            explainer.explain_batch([labeling], candidates=pool, top_k=-1)

    def test_search_top_k_refuses_negative_k(self, probe):
        system, labeling, pool = probe
        search = BestDescriptionSearch(system, labeling)
        with pytest.raises(ExplanationError):
            search.top_k(pool, -1)
        assert search.top_k(pool, 0) == []
        assert [entry.query for entry in search.top_k(pool, None)] == [
            entry.query for entry in search.rank(pool)
        ]
