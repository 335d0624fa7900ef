"""Differential tests: bitset verdict engine vs. the legacy per-pair path.

The bitset path (``repro.engine.verdicts``) must be *indistinguishable*
from the legacy per-pair path: same scores, same rankings, same rendered
reports, same profiles — for all four domain ontologies, and through
``explain_batch`` on both paths, where a labeling named twice costs one
``explain``'s cells.  A fresh legacy-path (per-pair oracle)
system is the reference; both paths of the ``scoring_path`` fixture
from ``tests/conftest.py`` are compared against it, the oracle path
itself included.
"""

from __future__ import annotations

import pytest

from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator, MatchProfile
from repro.core.explainer import OntologyExplainer
from repro.engine.verdicts import BitsetVerdictProfile, BorderColumns, VerdictMatrix
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.workloads.probes import PROBE_DOMAINS, build_probe_system, probe_labeling, probe_pool


# The per-domain probe systems/pools are shared with the other
# differential suites (repro.workloads.probes) — one definition, so no
# two suites can ever validate diverging workloads.
DOMAINS = PROBE_DOMAINS
_system = build_probe_system
_labeling = probe_labeling
_candidate_pool = probe_pool


_REFERENCE_CACHE = {}


def _reference_report(domain: str):
    """The legacy-path report, computed once per domain."""
    if domain not in _REFERENCE_CACHE:
        system = _system(domain)
        system.specification.engine.verdicts.enabled = False
        report = OntologyExplainer(system).explain(
            _labeling(system), candidates=_candidate_pool(system), top_k=None
        )
        _REFERENCE_CACHE[domain] = report
    return _REFERENCE_CACHE[domain]


# -- the differential matrix --------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS)
def test_all_paths_identical_to_legacy(domain, scoring_path):
    """Scores, rankings, reports and profiles on both scoring paths."""
    reference = _reference_report(domain)
    system = _system(domain)
    scoring_path.apply(system.specification)
    report = OntologyExplainer(system).explain(
        _labeling(system), candidates=_candidate_pool(system), top_k=None
    )
    assert report.render(top_k=None) == reference.render(top_k=None), (
        f"{domain}: {scoring_path.label} report diverged from the legacy path"
    )
    for expected, actual in zip(reference.explanations, report.explanations):
        assert str(actual.query) == str(expected.query)
        assert actual.score == expected.score
        assert actual.criterion_values == expected.criterion_values
        assert actual.profile == expected.profile, (
            f"{domain}: {scoring_path.label} profile diverged for {expected.query}"
        )


def test_explain_batch_on_bitset_and_legacy_paths():
    """A batch equals sequential ``explain`` on both scoring paths."""
    system = _system("university")
    labeling = _labeling(system)
    second = Labeling(
        positives=sorted(system.domain(), key=repr)[:2],
        negatives=sorted(system.domain(), key=repr)[4:6],
        name="probe_b",
    )
    pool = _candidate_pool(system)
    explainer = OntologyExplainer(system)
    sequential = [
        explainer.explain(each, candidates=pool, top_k=None) for each in (labeling, second)
    ]
    for use_bitset in (True, False):
        system.specification.engine.verdicts.enabled = use_bitset
        batched = explainer.explain_batch([labeling, second], candidates=pool, top_k=None)
        for expected, actual in zip(sequential, batched):
            assert actual.render(top_k=None) == expected.render(top_k=None)


@pytest.mark.parametrize("domain", DOMAINS)
def test_a_labeling_named_twice_in_a_batch_is_evaluated_once(domain):
    """Two layouts over the same borders: legacy-identical, one explain's cells."""
    reference = _reference_report(domain).render(top_k=None)
    single = _system(domain)
    OntologyExplainer(single).explain(
        _labeling(single), candidates=_candidate_pool(single), top_k=None
    )
    system = _system(domain)
    labeling = _labeling(system)
    reports = OntologyExplainer(system).explain_batch(
        [labeling, labeling], candidates=_candidate_pool(system), top_k=None
    )
    assert [report.render(top_k=None) for report in reports] == [reference, reference]
    stats = system.specification.engine.cache.stats
    expected = single.specification.engine.cache.stats
    assert stats.verdict_cells_evaluated == expected.verdict_cells_evaluated > 0
    assert stats.batch_dispatches == 1


# -- unit tests of the matrix itself ------------------------------------------


class TestVerdictMatrixUnit:
    @pytest.fixture(scope="class")
    def setup(self):
        system = _system("university")
        labeling = _labeling(system)
        evaluator = MatchEvaluator(system, radius=1)
        columns = BorderColumns.from_labeling(evaluator, labeling)
        matrix = VerdictMatrix(evaluator, columns)
        return system, labeling, evaluator, columns, matrix

    def test_rows_agree_with_per_pair_verdicts(self, setup):
        system, labeling, evaluator, columns, matrix = setup
        for query in _candidate_pool(system):
            row = matrix.row(query)
            for bit, border in enumerate(columns.borders):
                assert bool(row >> bit & 1) == evaluator.matches_border(query, border)

    def test_ucq_row_is_or_of_disjunct_rows(self, setup):
        system, _, _, _, matrix = setup
        pool = _candidate_pool(system)
        cqs = [q for q in pool if isinstance(q, ConjunctiveQuery)][:2]
        union = UnionOfConjunctiveQueries.of(cqs)
        assert matrix.row(union) == matrix.row(cqs[0]) | matrix.row(cqs[1])

    def test_bitset_profile_counts_match_materialized_sets(self, setup):
        system, labeling, evaluator, _, matrix = setup
        for query in _candidate_pool(system):
            profile = matrix.profile(query)
            assert isinstance(profile, BitsetVerdictProfile)
            materialized = profile.materialize()
            assert isinstance(materialized, MatchProfile)
            assert profile.true_positives == materialized.true_positives
            assert profile.false_negatives == materialized.false_negatives
            assert profile.false_positives == materialized.false_positives
            assert profile.true_negatives == materialized.true_negatives
            assert profile == materialized
            assert hash(profile) == hash(materialized)
            # And both agree with the per-pair evaluator.
            assert materialized == evaluator.profile(query, labeling)

    def test_column_masks_are_disjoint_and_cover_the_width(self, setup):
        _, labeling, _, columns, _ = setup
        assert columns.positive_count == len(labeling.positives)
        assert columns.negative_count == len(labeling.negatives)
        assert columns.positives_mask & columns.negatives_mask == 0
        assert columns.positives_mask | columns.negatives_mask == (1 << columns.width) - 1

    def test_build_fills_rows_in_one_pass(self, setup):
        system, labeling, evaluator, _, _ = setup
        fresh_columns = BorderColumns.from_labeling(evaluator, labeling)
        matrix = VerdictMatrix(evaluator, fresh_columns)
        pool = _candidate_pool(system)
        matrix.build(pool)
        # UCQs are stored too (via OR), on top of their CQ disjuncts.
        assert matrix.known_rows() >= len(pool)

    def test_shared_rows_are_reused_across_scorers(self):
        system = _system("university")
        labeling = _labeling(system)
        pool = _candidate_pool(system)
        explainer = OntologyExplainer(system)
        explainer.explain(labeling, candidates=pool)
        stats = system.specification.engine.cache.stats
        misses_after_first = stats.verdict_row_misses
        explainer.explain(labeling, candidates=pool)
        assert stats.verdict_row_misses == misses_after_first, (
            "a second explain over the same labeling recomputed verdict rows"
        )
        assert stats.verdict_row_hits > 0
