"""Tests for ``OntologyExplainer.explain_batch``.

``explain_batch`` must be indistinguishable from a sequential loop of
``explain`` calls — same queries, same scores, same ranks, same rendered
reports — under either answering strategy, while the labelings share
one evaluation cache.
"""

from __future__ import annotations

import pytest

from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling
from repro.obdm.system import OBDMSystem


@pytest.fixture(scope="module")
def second_labeling():
    """A different split of the running example's students."""
    return Labeling(positives=["A10", "B80", "C12"], negatives=["D50", "E25"], name="lambda_b")


@pytest.fixture(scope="module")
def chase_university_system(university_system):
    chased = university_system.specification.with_strategy("chase")
    return OBDMSystem(chased, university_system.database, name="uni_chase_batch")


class TestExplainBatchEqualsSequential:
    def test_with_explicit_candidates(
        self, university_explainer, university_labeling, second_labeling, university_queries
    ):
        candidates = list(university_queries.values())
        labelings = [university_labeling, second_labeling]
        sequential = [
            university_explainer.explain(labeling, candidates=candidates)
            for labeling in labelings
        ]
        batch = university_explainer.explain_batch(labelings, candidates=candidates)
        assert len(batch) == 2
        for expected, actual in zip(sequential, batch):
            assert actual.render(top_k=None) == expected.render(top_k=None)

    def test_with_generated_pools(self, university_explainer, university_labeling, second_labeling):
        labelings = [university_labeling, second_labeling]
        sequential = [university_explainer.explain(labeling) for labeling in labelings]
        batch = university_explainer.explain_batch(labelings)
        for expected, actual in zip(sequential, batch):
            assert actual.render(top_k=None) == expected.render(top_k=None)
            assert actual.candidate_count == expected.candidate_count

    def test_chase_strategy_query_for_query(
        self, chase_university_system, university_labeling, second_labeling, university_queries
    ):
        explainer = OntologyExplainer(chase_university_system)
        candidates = list(university_queries.values())
        labelings = [university_labeling, second_labeling]
        sequential = [
            explainer.explain(labeling, candidates=candidates) for labeling in labelings
        ]
        batch = explainer.explain_batch(labelings, candidates=candidates)
        for expected, actual in zip(sequential, batch):
            assert len(actual.explanations) == len(expected.explanations)
            for left, right in zip(expected.explanations, actual.explanations):
                assert str(left.query) == str(right.query)
                assert left.score == right.score
                assert left.rank == right.rank
                assert left.profile == right.profile

    def test_empty_batch(self, university_explainer):
        assert university_explainer.explain_batch([]) == []


class TestSharedCache:
    def test_shared_cache_is_reused_across_labelings(
        self, chase_university_system, university_labeling, second_labeling, university_queries
    ):
        explainer = OntologyExplainer(chase_university_system)
        candidates = list(university_queries.values())
        cache = chase_university_system.specification.engine.cache
        before = cache.stats.saturation_misses
        explainer.explain_batch(
            [university_labeling, second_labeling], candidates=candidates
        )
        after = cache.stats.saturation_misses
        # Both labelings cover the same five students, so the batch needs at
        # most one saturation per distinct border, however many pairs it scores.
        assert after - before <= 5
