"""Differential and unit tests for the pool-level match kernel.

The kernel path (``repro.engine.kernel``) must be *indistinguishable*
from the per-pair Definition 3.4 oracle: same verdict rows, same
scores, same rankings — for all four domain ontologies, for CQ and UCQ
candidates, with the evaluation cache on or off, under both answering
strategies, and with thread/process executors on top.  The oracle
(``engine.verdicts.enabled = False``, or :func:`oracle_row` for single
rows) is the reference.

Also covered here: the edge pools of the issue checklist (empty pool,
single-atom candidates, zero-provenance predicates, all-negative
labelings), subquery-tabling reuse, top-k bound pruning exactness, the
kernel-evaluated fresh columns of ``apply_drift``, and the
verdict-row-miss stats regression (UCQ rows built from cached disjunct
rows must not count as misses).
"""

from __future__ import annotations

import pytest

from repro.core.best_describe import BestDescriptionSearch
from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.experiments.kernel_exp import (
    PROBE_DOMAINS,
    build_probe_system,
    oracle_row,
    probe_labeling,
    probe_pool,
)
from repro.obdm.system import OBDMSystem
from repro.ontologies.loans import build_loan_specification
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries

pytestmark = pytest.mark.kernel


# The per-domain probe systems/pools are the E12 experiment's own
# (repro.experiments.kernel_exp) — one definition, so the identity sweep
# and this suite can never validate diverging workloads.
DOMAINS = PROBE_DOMAINS
_system = build_probe_system
_labeling = probe_labeling
_candidate_pool = probe_pool


_REFERENCE_CACHE = {}


def _reference_report(domain: str, strategy=None):
    """The per-pair oracle (cache on) report, computed once."""
    key = (domain, strategy)
    if key not in _REFERENCE_CACHE:
        system = _system(domain, strategy=strategy, verdicts=False)
        report = OntologyExplainer(system).explain(
            _labeling(system), candidates=_candidate_pool(system), top_k=None
        )
        _REFERENCE_CACHE[key] = report
    return _REFERENCE_CACHE[key]


# -- the differential matrix --------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
def test_kernel_identical_to_per_pair(domain, cache):
    """Kernel rows/scores/reports match the per-pair path, cache on or off."""
    reference = _reference_report(domain)
    system = _system(domain, cache=cache)
    report = OntologyExplainer(system).explain(
        _labeling(system), candidates=_candidate_pool(system), top_k=None
    )
    assert report.render(top_k=None) == reference.render(top_k=None), (
        f"{domain}: kernel (cache={cache}) report diverged from the per-pair oracle"
    )
    for expected, actual in zip(reference.explanations, report.explanations):
        assert str(actual.query) == str(expected.query)
        assert actual.score == expected.score
        assert actual.profile == expected.profile


@pytest.mark.parametrize("domain", DOMAINS)
def test_kernel_identical_under_chase_strategy(domain):
    """The chase strategy merges per-border *saturations*; rows still match."""
    reference = _reference_report(domain, strategy="chase")
    system = _system(domain, strategy="chase")
    report = OntologyExplainer(system).explain(
        _labeling(system), candidates=_candidate_pool(system), top_k=None
    )
    assert report.render(top_k=None) == reference.render(top_k=None), (
        f"{domain}: kernel chase-strategy report diverged from the per-pair oracle"
    )


@pytest.mark.parametrize("domain", DOMAINS)
def test_kernel_rows_equal_per_pair_verdicts(domain):
    """Bit-for-bit: each kernel row equals the per-pair matches_border bits."""
    system = _system(domain)
    labeling = _labeling(system)
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, labeling)
    matrix = VerdictMatrix(evaluator, columns)
    matrix.build(_candidate_pool(system))
    checker = MatchEvaluator(_system(domain, verdicts=False), radius=1)
    for query in _candidate_pool(system):
        row = matrix.row(query)
        for bit, border in enumerate(columns.borders):
            assert bool(row >> bit & 1) == checker.matches_border(query, border), (
                f"{domain}: bit {bit} of {query} diverged"
            )


@pytest.mark.slow
@pytest.mark.parametrize("domain", DOMAINS)
def test_process_sharding_on_kernel_path(domain):
    """Sharded scoring over the kernel path stays per-pair-identical."""
    reference = _reference_report(domain)
    system = _system(domain)
    reports = OntologyExplainer(system).explain_batch(
        [_labeling(system)],
        candidates=_candidate_pool(system),
        executor="process",
        max_workers=2,
        top_k=None,
    )
    assert reports[0].render(top_k=None) == reference.render(top_k=None)


# -- edge pools ---------------------------------------------------------------


class TestEdgePools:
    def _matrix(self, system, labeling):
        evaluator = MatchEvaluator(system, radius=1)
        columns = BorderColumns.from_labeling(evaluator, labeling)
        return VerdictMatrix(evaluator, columns)

    def test_empty_pool(self):
        system = _system("university")
        matrix = self._matrix(system, _labeling(system))
        matrix.build([])
        assert matrix.known_rows() == 0

    def test_single_atom_candidates(self):
        system = _system("university")
        oracle = MatchEvaluator(_system("university", verdicts=False), radius=1)
        labeling = _labeling(system)
        pool = [
            query
            for query in _candidate_pool(system)
            if isinstance(query, ConjunctiveQuery) and query.atom_count() == 1
        ]
        assert pool, "the domain pool should contain single-atom candidates"
        matrix = self._matrix(system, labeling)
        matrix.build(pool)
        for query in pool:
            assert matrix.row(query) == oracle_row(oracle, matrix.columns, query)

    def test_zero_provenance_predicate(self):
        """A predicate absent from every border yields an all-zero row."""
        system = _system("university")
        system.ontology.declare_concept("PhantomConcept")
        labeling = _labeling(system)
        matrix = self._matrix(system, labeling)
        ghost = ConjunctiveQuery.of(
            ("?x",), (Atom.of("PhantomConcept", "?x"),), name="q_ghost"
        )
        assert matrix.row(ghost) == 0
        assert matrix.upper_bound_row(ghost) == 0
        # Joining the phantom predicate into a real candidate zeroes it too.
        role = sorted(system.ontology.role_names)[0]
        joined = ConjunctiveQuery.of(
            ("?x",),
            (Atom.of(role, "?x", "?y"), Atom.of("PhantomConcept", "?x")),
            name="q_joined",
        )
        assert matrix.row(joined) == 0

    def test_all_negative_labeling(self):
        system = _system("university")
        oracle = MatchEvaluator(_system("university", verdicts=False), radius=1)
        constants = sorted(system.domain(), key=repr)[:4]
        labeling = Labeling(positives=(), negatives=constants, name="all_negative")
        pool = _candidate_pool(system)
        matrix = self._matrix(system, labeling)
        matrix.build(pool)
        assert matrix.columns.positive_count == 0
        for query in pool:
            assert matrix.row(query) == oracle_row(oracle, matrix.columns, query)


# -- subquery tabling ---------------------------------------------------------


def test_subquery_tabling_reuses_shared_prefixes():
    """Candidates sharing a two-atom prefix pay for it once."""
    system = _system("university")
    labeling = _labeling(system)
    stats = system.specification.engine.cache.stats
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, labeling)
    matrix = VerdictMatrix(evaluator, columns)
    pool = _candidate_pool(system)
    matrix.build(pool)
    assert stats.subquery_misses > 0, "building the pool should table prefixes"
    hits_after_build = stats.subquery_hits

    # A second matrix over the same layout (fresh object, shared cache)
    # reuses the tabled states instead of re-joining them; the shared
    # verdict store is cleared first so the rows genuinely recompute.
    misses_after_build = stats.subquery_misses
    system.specification.engine.cache.verdict_store().clear()
    again = VerdictMatrix(MatchEvaluator(system, radius=1), columns)
    again.build(pool)
    assert stats.subquery_hits > hits_after_build, (
        "a rebuilt matrix over the same borders should hit the tabled prefixes"
    )
    assert stats.subquery_misses == misses_after_build, (
        "a rebuilt matrix over the same borders re-joined already-tabled prefixes"
    )


def test_subquery_tables_bounded_by_cache_limits():
    from repro.engine.cache import CacheLimits

    system = _system("university")
    cache = system.specification.engine.cache
    cache.configure_limits(CacheLimits(subqueries=1))
    labeling = _labeling(system)
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, labeling)
    VerdictMatrix(evaluator, columns).build(_candidate_pool(system))
    report = cache.size_report()
    assert report["subquery_indexes"] <= 1
    assert report["subquery_states"] > 0


# -- stats regression (issue checklist: UCQ double-counting) -------------------


def test_ucq_rows_do_not_double_count_misses():
    """A UCQ row OR-ed from cached disjunct rows is not a genuine miss."""
    system = _system("university")
    stats = system.specification.engine.cache.stats
    labeling = _labeling(system)
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, labeling)
    matrix = VerdictMatrix(evaluator, columns)
    cqs = [q for q in _candidate_pool(system) if isinstance(q, ConjunctiveQuery)][:2]
    for cq in cqs:
        matrix.row(cq)
    misses_after_cqs = stats.verdict_row_misses
    hits_after_cqs = stats.verdict_row_hits
    assert misses_after_cqs >= len(cqs)

    union = UnionOfConjunctiveQueries.of(cqs, name="q_union_stats")
    matrix.row(union)
    # The union row is OR arithmetic over two cached disjunct rows: two
    # hits, zero new misses (this is the regression: the union itself
    # used to count as a miss on top of the disjunct hits).
    assert stats.verdict_row_misses == misses_after_cqs, (
        "a UCQ row built from cached disjunct rows counted as a verdict-row miss"
    )
    assert stats.verdict_row_hits == hits_after_cqs + len(cqs)

    # Re-reading the union is a plain hit.
    matrix.row(union)
    assert stats.verdict_row_hits == hits_after_cqs + len(cqs) + 1
    assert stats.verdict_row_misses == misses_after_cqs


def test_fresh_ucq_counts_only_disjunct_misses():
    """A cold UCQ row costs exactly one miss per genuinely computed disjunct."""
    system = _system("university")
    stats = system.specification.engine.cache.stats
    labeling = _labeling(system)
    evaluator = MatchEvaluator(system, radius=1)
    matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, labeling))
    cqs = [q for q in _candidate_pool(system) if isinstance(q, ConjunctiveQuery)][:2]
    before = stats.verdict_row_misses
    matrix.row(UnionOfConjunctiveQueries.of(cqs, name="q_union_cold"))
    assert stats.verdict_row_misses == before + len(cqs)


# -- top-k bound pruning -------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS)
def test_top_k_pruning_matches_exhaustive(domain):
    system = _system(domain)
    labeling = _labeling(system)
    pool = _candidate_pool(system)
    for k in (1, 2, len(pool) - 1, len(pool), len(pool) + 3):
        exhaustive = BestDescriptionSearch(system, labeling).rank(pool)[:k]
        pruned = BestDescriptionSearch(system, labeling).top_k(pool, k)
        assert [(str(e.query), e.score, e.profile) for e in pruned] == [
            (str(e.query), e.score, e.profile) for e in exhaustive
        ], f"{domain}: top_k({k}) diverged from the exhaustive prefix"


def test_top_k_pruning_skips_exact_evaluation():
    from repro.experiments.scalability import build_loan_pool

    workload = build_loan_pool(applicants=40, candidate_pool=30, labeled_per_side=12)
    system = OBDMSystem(build_loan_specification(), workload.database, name="loan_topk")
    search = BestDescriptionSearch(system, workload.labelings[0])
    pruned = search.top_k(list(workload.pool), 3)
    assert len(pruned) == 3
    evaluated = search.scorer.verdict_matrix().known_rows()
    assert evaluated < len(workload.pool), (
        "top-k pruning built a verdict row for every candidate"
    )


def test_top_k_falls_back_for_set_reading_criteria():
    """Criteria that read tuple sets cannot be bounded: exhaustive fallback."""
    from repro.core.criteria import Criterion
    from repro.core.scoring import WeightedAverage

    set_reader = Criterion(
        "set_reader",
        "touches the matched-positive tuple set directly",
        lambda context: 1.0 if context.profile.positives_matched is not None else 0.0,
    )
    system = _system("loans")
    labeling = _labeling(system)
    pool = _candidate_pool(system)
    kwargs = dict(
        criteria=(set_reader,),
        expression=WeightedAverage.of({"set_reader": 1.0}),
    )
    exhaustive = BestDescriptionSearch(system, labeling, **kwargs).rank(pool)[:2]
    pruned = BestDescriptionSearch(system, labeling, **kwargs).top_k(pool, 2)
    assert [(str(e.query), e.score) for e in pruned] == [
        (str(e.query), e.score) for e in exhaustive
    ]


def test_top_k_exact_for_non_monotone_count_criterion():
    """A counts-only criterion peaked at interior TP must not be pruned.

    The corner bound is unsound for it (its maximum is at TP = P/2, not
    at a corner), so ``_prunes`` refuses custom criteria outright and
    the result must equal the exhaustive prefix.
    """
    from repro.core.criteria import Criterion
    from repro.core.scoring import WeightedAverage

    def peaked(context):
        profile = context.profile
        total = profile.positive_total
        if total == 0:
            return 0.0
        return 4.0 * profile.true_positives * (total - profile.true_positives) / total**2

    peak = Criterion("peak", "maximal at TP = P/2 (non-monotone)", peaked)
    system = _system("loans")
    labeling = _labeling(system)
    pool = _candidate_pool(system)
    kwargs = dict(criteria=(peak,), expression=WeightedAverage.of({"peak": 1.0}))
    exhaustive = BestDescriptionSearch(system, labeling, **kwargs).rank(pool)[:2]
    pruned_search = BestDescriptionSearch(system, labeling, **kwargs)
    assert not pruned_search._prunes()
    pruned = pruned_search.top_k(pool, 2)
    assert [(str(e.query), e.score) for e in pruned] == [
        (str(e.query), e.score) for e in exhaustive
    ]


def test_optimistic_score_bounds_exact_score():
    system = _system("loans")
    labeling = _labeling(system)
    search = BestDescriptionSearch(system, labeling)
    for query in _candidate_pool(system):
        bound = search.scorer.optimistic_score(query)
        exact = search.scorer.score(query).score
        assert bound >= exact - 1e-12, (
            f"optimistic bound {bound} below exact score {exact} for {query}"
        )


# -- drift through the kernel --------------------------------------------------


def test_apply_drift_fresh_columns_via_kernel():
    """Kernel-evaluated fresh columns match a cold rebuild bit for bit."""
    system = _system("university")
    constants = sorted(system.domain(), key=repr)[:8]
    labeling = Labeling(positives=constants[:3], negatives=constants[3:6], name="drifting")
    evaluator = MatchEvaluator(system, radius=1)
    matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, labeling))
    pool = _candidate_pool(system)
    matrix.build(pool)
    drifted = matrix.apply_drift(
        added=[(constants[6], 1), (constants[7], -1)],
        removed=[constants[0]],
        flipped=[constants[3]],
    )
    cold_labeling = Labeling(
        positives=[constants[1], constants[2], constants[6], constants[3]],
        negatives=[constants[4], constants[5], constants[7]],
        name="drifting",
    )
    cold_system = _system("university")
    cold_evaluator = MatchEvaluator(cold_system, radius=1)
    cold = VerdictMatrix(
        cold_evaluator, BorderColumns.from_labeling(cold_evaluator, cold_labeling)
    )
    assert drifted.columns.tuples == cold.columns.tuples
    for query in pool:
        assert drifted.row(query) == cold.row(query), f"drifted row diverged for {query}"
