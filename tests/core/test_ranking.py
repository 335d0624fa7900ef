"""Ranking by score class: prefix identity against the oracle, work per class.

:meth:`BestDescriptionSearch.rank` scores each score class once, orders
by text only the candidates that can reach the first ``k`` places, and
builds entries only for the ones it returns.  These tests pin that this
changes the work and nothing else:

* ``rank(pool, limit=k)`` equals ``rank(pool)[:k]`` entry for entry, and
  both equal the *reference ranking* of a per-pair Definition 3.4 oracle
  system: every candidate scored on its own, the whole pool sorted with
  ``BestDescriptionSearch._sort_key``.  Served renders equal the
  reference's.  This holds on generated pools with a UCQ added, on the
  four probe domains plus university/chase, under every (Δ, Z)
  configuration of ``CRITERIA_CONFIGS`` and under a custom criterion
  that reads tuple sets;
* when more candidates share the k-th (−Z, size) key than fit,
  ``str(query)`` decides which ones are returned, and #disjuncts keeps a
  UCQ out of a same-count CQ's class;
* work is counted exactly: a warm ``rank(pool, limit=10)`` evaluates
  each criterion once per score class and builds ten profiles; a custom
  criterion is evaluated once per candidate;
* the property the class key relies on: every built-in criterion
  evaluates on a :class:`CountProfile` context (whose set views raise)
  and a query that reveals nothing but its atom and disjunct counts, to
  the value it takes on the equivalent set-backed profile;
* ``explain_batch`` does the work of a loop of ``explain`` calls,
  once: one verdict fill for all labelings (a single batch dispatch, no
  lazy fill), then per labeling the criterion evaluations ``explain``
  makes, with renders equal to the loop's and the oracle's; with a
  ``top_k`` each report keeps the first k entries of its full ranking;
* a negative ``top_k`` is refused by ``explain``, the service and
  ``explain_batch`` before any pool, border or session is built;
* the ``refine`` beam scores each query once through the request's
  scorer: on the bitset path it asks no per-pair J-match question, and
  its pool and render equal a per-pair oracle system's.  It fills the
  rows of its initial queries, then of each iteration's unseen
  refinements, in one verdict fill each: at most ``1 + max_iterations``
  fills per pool, none of them a lazy single-row fill.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.best_describe import BestDescriptionSearch, ScoredQuery, query_size
from repro.core.criteria import (
    DEFAULT_REGISTRY,
    MONOTONE_CRITERIA,
    Criterion,
    EvaluationContext,
    evaluate_criteria,
)
from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling
from repro.core.matching import CountProfile, MatchEvaluator, MatchProfile
from repro.core.report import build_report
from repro.core.scoring import WeightedAverage, describe_expression
from repro.core.refinement import RefinementConfig
from repro.engine.verdicts import BitsetVerdictProfile, VerdictMatrix
from repro.errors import ExplanationError
from repro.ontologies.university import build_university_system
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.service import ExplanationService
from repro.workloads.probes import (
    CRITERIA_CONFIGS,
    PROBE_DOMAINS,
    build_probe_system,
    probe_labeling,
    probe_labelings,
    probe_pool,
)

pytestmark = pytest.mark.ranking


def _first_positive_matched(context: EvaluationContext) -> float:
    """1 when the repr-first positive is matched: reads the tuple sets."""
    profile = context.profile
    positives = profile.positives_matched | profile.positives_unmatched
    if not positives:
        return 0.0
    return float(min(positives, key=repr) in profile.positives_matched)


FIRST_POSITIVE = Criterion(
    "first_positive", "Is the first positive matched?", _first_positive_matched
)
CUSTOM_CONFIG = (
    ("delta1", "delta4", "delta5", FIRST_POSITIVE),
    WeightedAverage.of({"delta1": 1.0, "delta4": 1.0, "delta5": 1.0, "first_positive": 1.0}),
)
CONFIGS = dict(CRITERIA_CONFIGS, first_positive=CUSTOM_CONFIG)

CASES = [(domain, None) for domain in PROBE_DOMAINS] + [("university", "chase")]
CASE_IDS = [f"{d}-{s or 'rewriting'}" for d, s in CASES]

UNIVERSITY_LABELING = Labeling(positives=["A10", "B80", "C12", "D50"], negatives=["E25"])


def _reference(system, labeling, pool, criteria, expression, profiles=None):
    """Every candidate scored on its own, the whole pool sorted by the comparator.

    *profiles* (aligned with *pool*) are the candidates' match profiles
    when already known; otherwise *system* computes them.
    """
    scorer = BestDescriptionSearch(system, labeling, 1, criteria, expression).scorer
    if profiles is None:
        profiles = [scorer.context_for(query).profile for query in pool]
    entries = []
    for query, profile in zip(pool, profiles):
        values = evaluate_criteria(scorer.criteria, EvaluationContext(query, profile, labeling, 1))
        entries.append(
            ScoredQuery(query, expression.score(values), tuple(sorted(values.items())), profile)
        )
    return sorted(entries, key=BestDescriptionSearch._sort_key)


def _head(entry):
    return (-entry.score, query_size(entry.query))


def _limits(pool):
    return (0, 1, 10, len(pool) - 1, len(pool), None)


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request):
    """A default system, its oracle twin, a labeling, a generated pool with a
    UCQ, the pool's oracle profiles and a service over the default system."""
    domain, strategy = request.param
    system = build_probe_system(domain, strategy=strategy)
    oracle = build_probe_system(domain, strategy=strategy, verdicts=False)
    labeling = probe_labeling(system)
    search = BestDescriptionSearch(system, labeling)
    pool = list(search.candidate_pool(extra_candidates=probe_pool(system)))
    pool.append(UnionOfConjunctiveQueries.of(pool[:2], name="q_first_two"))
    evaluator = MatchEvaluator(oracle, 1)
    profiles = [evaluator.profile(query, labeling) for query in pool]
    return system, oracle, labeling, pool, profiles, ExplanationService(system, radius=1)


@pytest.mark.parametrize("config", list(CONFIGS))
def test_prefix_identity_against_the_oracle(case, config):
    system, oracle, labeling, pool, profiles, service = case
    criteria, expression = CONFIGS[config]
    reference = _reference(oracle, labeling, pool, criteria, expression, profiles)
    keys = [criterion.key for criterion in DEFAULT_REGISTRY.resolve(criteria)]
    search = BestDescriptionSearch(system, labeling, 1, criteria, expression)
    full = search.rank(pool)
    assert full == reference
    for k in _limits(pool):
        assert search.rank(pool, limit=k) == full[:k], f"limit={k}"
        served = service.explain(
            labeling, criteria=criteria, expression=expression, candidates=pool, top_k=k
        )
        expected = build_report(
            labeling, 1, keys, describe_expression(expression), reference, len(pool), top_k=k
        )
        assert served.render(top_k=None) == expected.render(top_k=None), f"limit={k}"


def test_oracle_rank_prefix_equals_the_reference(case):
    _system, oracle, labeling, pool, profiles, _service = case
    criteria, expression = CONFIGS["example_3_8"]
    reference = _reference(oracle, labeling, pool, criteria, expression, profiles)
    search = BestDescriptionSearch(oracle, labeling, 1, criteria, expression)
    assert search.rank(pool, limit=10) == reference[:10]


@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_refine_reads_coverage_and_score_from_one_scorer(domain):
    system = build_probe_system(domain)
    oracle = build_probe_system(domain, verdicts=False)
    labeling = probe_labeling(system)
    stats = system.specification.engine.cache.stats
    before = stats.as_dict()
    pool = BestDescriptionSearch(system, labeling).candidate_pool("refine")
    report = OntologyExplainer(system).explain(labeling, strategy="refine", top_k=None)
    assert stats.delta_since(before)["match_misses"] == 0
    assert pool
    oracle_pool = BestDescriptionSearch(oracle, labeling).candidate_pool("refine")
    assert [str(query) for query in pool] == [str(query) for query in oracle_pool]
    expected = OntologyExplainer(oracle).explain(labeling, strategy="refine", top_k=None)
    assert report.render(top_k=None) == expected.render(top_k=None)


@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_refine_fills_each_beam_iteration_once(domain, monkeypatch):
    system = build_probe_system(domain)
    oracle = build_probe_system(domain, verdicts=False)
    labeling = probe_labeling(system)
    config = RefinementConfig()
    fills = []
    fill_group = VerdictMatrix._fill_group

    def counted(group, lazy):
        fills.append(lazy)
        return fill_group(group, lazy)

    monkeypatch.setattr(VerdictMatrix, "_fill_group", staticmethod(counted))
    pool = BestDescriptionSearch(system, labeling).candidate_pool("refine", refinement_config=config)
    assert pool
    assert fills and not any(fills), f"{fills.count(True)} lazy fills"
    assert len(fills) <= 1 + config.max_iterations
    oracle_pool = BestDescriptionSearch(oracle, labeling).candidate_pool(
        "refine", refinement_config=config
    )
    assert [str(query) for query in pool] == [str(query) for query in oracle_pool]
    served = OntologyExplainer(system).explain(labeling, strategy="refine", top_k=10)
    expected = OntologyExplainer(oracle).explain(labeling, strategy="refine", top_k=10)
    assert served.render() == expected.render()


class TestTiesAtTheBoundary:
    """More candidates share the k-th (−Z, size) key than fit: text decides."""

    @pytest.fixture()
    def tied_pool(self):
        base = parse_cq("q(x) :- likes(x, y), taughtIn(y, 'Norm')")
        top = parse_cq("q_top(x) :- likes(x, 'Science')")
        return [
            base.with_name("q_d"),
            base.with_name("q_b"),
            top,
            base.with_body(reversed(base.body)).with_name("q_a"),
            base.with_name("q_c"),
            base.with_name("q_a"),
        ]

    @pytest.mark.parametrize("verdicts", [True, False], ids=["bitset", "oracle"])
    def test_text_decides_the_boundary(self, tied_pool, verdicts):
        system = build_university_system()
        system.specification.engine.verdicts.enabled = verdicts
        search = BestDescriptionSearch(system, UNIVERSITY_LABELING)
        reference = _reference(
            system, UNIVERSITY_LABELING, tied_pool, *CRITERIA_CONFIGS["example_3_8"]
        )
        tied = [entry for entry in reference if entry.query.name != "q_top"]
        assert len({_head(entry) for entry in tied}) == 1
        assert _head(reference[0]) < _head(tied[0])
        assert [str(entry.query) for entry in search.rank(tied_pool, limit=3)] == [
            "q_top(?x) :- likes(?x, Science)",
            "q_a(?x) :- likes(?x, ?y), taughtIn(?y, Norm)",
            "q_a(?x) :- taughtIn(?y, Norm), likes(?x, ?y)",
        ]
        for k in range(len(tied_pool) + 1):
            assert search.rank(tied_pool, limit=k) == reference[:k], f"limit={k}"

    @pytest.mark.parametrize("order", ["cq_first", "ucq_first"])
    def test_disjunct_count_separates_classes(self, order):
        # A UCQ of one CQ and its renamed copy has that CQ's row (so its
        # counts) and two atoms, like a two-atom CQ with the same counts;
        # only #disjuncts tells their classes apart, and δ6 scores them
        # differently.
        system = build_university_system()
        single = parse_cq("q_single(x) :- likes(x, 'Science')")
        twin = UnionOfConjunctiveQueries.of(
            (single, parse_cq("q_copy(z) :- likes(z, 'Science')")), name="q_twin"
        )
        pair = parse_cq("q_pair(x) :- likes(x, 'Science'), likes('D50', 'Science')")
        pool = [pair, twin] if order == "cq_first" else [twin, pair]
        criteria, expression = CRITERIA_CONFIGS["all_deltas"]
        search = BestDescriptionSearch(system, UNIVERSITY_LABELING, 1, criteria, expression)
        matrix = search.scorer.verdict_matrix()
        assert matrix.counts(twin) == matrix.counts(pair)
        assert twin.atom_count() == pair.atom_count() == 2
        ranking = search.rank(pool)
        assert ranking == _reference(system, UNIVERSITY_LABELING, pool, criteria, expression)
        assert ranking[0].score > ranking[1].score
        assert ranking[0].query == pair


class TestWorkCounts:
    """Criterion evaluations and profiles per warm ``rank(pool, limit=10)``."""

    @pytest.fixture()
    def university(self):
        system = build_university_system()
        pool = list(BestDescriptionSearch(system, UNIVERSITY_LABELING).candidate_pool())
        return system, pool

    @staticmethod
    def _count(monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_built_in_criteria_are_evaluated_once_per_score_class(self, university, monkeypatch):
        system, pool = university
        search = BestDescriptionSearch(system, UNIVERSITY_LABELING)
        reference = _reference(system, UNIVERSITY_LABELING, pool, *CRITERIA_CONFIGS["example_3_8"])
        classes = {
            (entry.profile.true_positives, entry.profile.false_positives)
            + query_size(entry.query)
            for entry in reference
        }
        assert len(classes) * 10 < len(pool)
        search.rank(pool, limit=10)  # warm: rows built

        evaluations = self._count(monkeypatch, Criterion, "evaluate")
        profiles = self._count(monkeypatch, BitsetVerdictProfile, "__init__")
        ranking = search.rank(pool, limit=10)
        assert len(evaluations) == len(search.scorer.criteria) * len(classes)
        assert len(profiles) == 10
        assert ranking == reference[:10]

    def test_a_custom_criterion_is_evaluated_once_per_candidate(self, university, monkeypatch):
        system, pool = university
        search = BestDescriptionSearch(system, UNIVERSITY_LABELING, 1, *CUSTOM_CONFIG)
        assert not search.scorer.scores_by_counts()
        reference = _reference(system, UNIVERSITY_LABELING, pool, *CUSTOM_CONFIG)
        search.rank(pool, limit=10)

        evaluations = self._count(monkeypatch, Criterion, "evaluate")
        ranking = search.rank(pool, limit=10)
        assert len(evaluations) == len(CUSTOM_CONFIG[0]) * len(pool)
        assert ranking == reference[:10]
        # The custom values differ inside a count class, so a count key
        # would have given this configuration a wrong ranking.
        by_class = {}
        for entry in reference:
            key = (entry.profile.true_positives, entry.profile.false_positives)
            by_class.setdefault(key + query_size(entry.query), set()).add(
                entry.values["first_positive"]
            )
        assert any(len(values) > 1 for values in by_class.values())


BATCH_CASES = [(domain, None, True) for domain in PROBE_DOMAINS] + [
    ("university", "chase", True),
    ("university", None, False),
]
BATCH_IDS = [
    f"{d}-{s or 'rewriting'}-{'explicit' if explicit else 'generated'}"
    for d, s, explicit in BATCH_CASES
]


class TestExplainBatch:
    """``explain_batch`` is one verdict fill plus ``explain``'s ranking."""

    @staticmethod
    def _fills(monkeypatch):
        """The *lazy* flag of every verdict fill from now on."""
        fills = []
        fill_group = VerdictMatrix._fill_group

        def counted(group, lazy):
            fills.append(lazy)
            return fill_group(group, lazy)

        monkeypatch.setattr(VerdictMatrix, "_fill_group", staticmethod(counted))
        return fills

    @pytest.mark.parametrize("domain, strategy, explicit", BATCH_CASES, ids=BATCH_IDS)
    def test_batch_does_sequential_explains_work_once(
        self, domain, strategy, explicit, monkeypatch
    ):
        def request(verdicts=True):
            system = build_probe_system(domain, strategy=strategy, verdicts=verdicts)
            pool = probe_pool(system) if explicit else None
            return OntologyExplainer(system), probe_labelings(system, count=3), pool

        evaluations = TestWorkCounts._count(monkeypatch, Criterion, "evaluate")
        fills = self._fills(monkeypatch)
        explainer, labelings, pool = request()
        sequential = [
            explainer.explain(labeling, candidates=pool, top_k=None).render(top_k=None)
            for labeling in labelings
        ]
        expected_evaluations = len(evaluations)

        explainer, labelings, pool = request()
        stats = explainer.system.specification.engine.cache.stats
        before = stats.as_dict()
        evaluations.clear()
        fills.clear()
        batch = explainer.explain_batch(labelings, candidates=pool, top_k=None)
        assert [report.render(top_k=None) for report in batch] == sequential
        assert len(evaluations) == expected_evaluations
        assert stats.delta_since(before)["batch_dispatches"] == 1
        assert fills == [False]

        explainer, labelings, pool = request(verdicts=False)
        fills.clear()
        oracle = explainer.explain_batch(labelings, candidates=pool, top_k=None)
        assert [report.render(top_k=None) for report in oracle] == sequential
        assert fills == []

    @pytest.mark.parametrize("domain, strategy, explicit", BATCH_CASES, ids=BATCH_IDS)
    def test_batch_keeps_each_explains_top_k(self, domain, strategy, explicit):
        """``explain_batch(top_k=k)`` keeps ``explain``'s first k, not a re-ranking."""
        system = build_probe_system(domain, strategy=strategy)
        explainer = OntologyExplainer(system)
        labelings = probe_labelings(system, count=3)
        pool = probe_pool(system) if explicit else None

        def entries(report):
            return [(entry.rank, str(entry.query), entry.score) for entry in report.explanations]

        everything = explainer.explain_batch(labelings, candidates=pool, top_k=None)
        for top_k in (0, 1, 2):
            batch = explainer.explain_batch(labelings, candidates=pool, top_k=top_k)
            for labeling, report, full in zip(labelings, batch, everything):
                single = explainer.explain(labeling, candidates=pool, top_k=top_k)
                assert report.render(top_k=None) == single.render(top_k=None)
                assert entries(report) == entries(full)[:top_k]
                assert report.candidate_count == full.candidate_count

    def test_a_negative_top_k_is_refused_before_any_work(self):
        system = build_probe_system("loans")
        labelings = probe_labelings(system, count=2)
        pool = probe_pool(system)
        explainer = OntologyExplainer(system)
        service = ExplanationService(system)
        stats = system.specification.engine.cache.stats
        served = service.stats.as_dict()
        attempts = [
            lambda: explainer.explain(labelings[0], top_k=-1),
            lambda: service.explain(labelings[0], top_k=-1),
            lambda: explainer.explain_batch(labelings, candidates=pool, top_k=-1),
            lambda: explainer.explain_batch(labelings, top_k=-1),
        ]
        for attempt in attempts:
            before = stats.as_dict()
            with pytest.raises(ExplanationError):
                attempt()
            spent = stats.delta_since(before)
            assert spent["candidate_misses"] == 0
            assert spent["mapping_passes"] == 0
            assert spent["batch_dispatches"] == 0
        assert service.stats.as_dict() == served
        assert service.size_report()["sessions"] == 0


def test_score_classes_need_the_bitset_path_and_built_in_criteria():
    system = build_university_system()

    def by_counts(criteria=CRITERIA_CONFIGS["example_3_8"][0], expression=None):
        search = BestDescriptionSearch(system, UNIVERSITY_LABELING, 1, criteria, expression)
        return search.scorer.scores_by_counts()

    assert all(by_counts(*config) for config in CRITERIA_CONFIGS.values())
    assert not by_counts(*CUSTOM_CONFIG)
    system.specification.engine.verdicts.enabled = False
    assert not by_counts()


def test_counts_equal_row_popcounts_also_without_fill_counts():
    system = build_university_system()
    search = BestDescriptionSearch(system, UNIVERSITY_LABELING)
    pool = list(search.candidate_pool())
    matrix = search.scorer.verdict_matrix()
    matrix.build(pool)
    union = UnionOfConjunctiveQueries.of(pool[:3], name="q_three")
    for query in pool + [union]:
        row = matrix.row(query)
        assert matrix.counts(query) == (
            (row & matrix.columns.positives_mask).bit_count(),
            (row & matrix.columns.negatives_mask).bit_count(),
        )


class _SizeOnlyQuery(UnionOfConjunctiveQueries):
    """A query stand-in that reveals nothing but its atom and disjunct counts."""

    def __init__(self, disjuncts: int, atoms: int):
        object.__setattr__(self, "_size", (disjuncts, atoms))

    def disjunct_count(self) -> int:
        return object.__getattribute__(self, "_size")[0]

    def atom_count(self) -> int:
        return object.__getattribute__(self, "_size")[1]

    def __getattribute__(self, name):
        if name in ("disjunct_count", "atom_count", "__class__"):
            return object.__getattribute__(self, name)
        raise AssertionError(f"a built-in criterion read query.{name}")


def _real_query(disjuncts: int, atoms: int):
    """A real CQ/UCQ with the given numbers of disjuncts and atoms."""
    per_disjunct = [atoms // disjuncts + (i < atoms % disjuncts) for i in range(disjuncts)]
    cqs = [
        ConjunctiveQuery.of(("?x",), tuple(Atom.of(f"p{i}_{j}", "?x") for j in range(size)))
        for i, size in enumerate(per_disjunct)
    ]
    return cqs[0] if disjuncts == 1 else UnionOfConjunctiveQueries.of(cqs)


@pytest.mark.parametrize(
    "criterion", sorted(MONOTONE_CRITERIA, key=lambda c: c.key), ids=lambda c: c.key
)
def test_built_in_criteria_read_only_counts_and_size(criterion):
    positives = [f"P{i}" for i in range(3)]
    negatives = [f"N{i}" for i in range(2)]
    labeling = Labeling(positives=positives, negatives=negatives)
    pos = [(value,) for value in positives]
    neg = [(value,) for value in negatives]
    for tp, fp in itertools.product(range(len(pos) + 1), range(len(neg) + 1)):
        counts = CountProfile(tp, len(pos) - tp, fp, len(neg) - fp)
        sets = MatchProfile(
            frozenset(pos[:tp]), frozenset(pos[tp:]), frozenset(neg[:fp]), frozenset(neg[fp:])
        )
        for disjuncts, atoms in [(1, 1), (1, 3), (2, 2), (3, 5)]:
            bare = EvaluationContext(_SizeOnlyQuery(disjuncts, atoms), counts, labeling, 1)
            real = EvaluationContext(_real_query(disjuncts, atoms), sets, labeling, 1)
            assert criterion.evaluate(bare) == criterion.evaluate(real)
