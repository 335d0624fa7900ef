"""Differential and unit tests for the pool-level match kernel.

The kernel path (``repro.engine.kernel``) must be *indistinguishable*
from the per-pair Definition 3.4 oracle: same verdict rows, same
scores, same rankings — for all four domain ontologies, for CQ and UCQ
candidates and under both answering strategies.  The oracle
(``engine.verdicts.enabled = False``, or :func:`oracle_row` for single
rows) is the reference.

Also covered here: the edge pools of the issue checklist (empty pool,
single-atom candidates, zero-provenance predicates, all-negative
labelings), subquery-tabling reuse, ``top_k`` exactness, the
kernel-evaluated fresh columns of ``apply_drift``, and the
verdict-row-miss stats regression (UCQ rows built from cached disjunct
rows must not count as misses), and query validation: both strategies,
on the kernel and the per-pair path, refuse an atom outside the
ontology vocabulary with the same error, checking each query once.

The index holds integer-encoded facts: the last tests pin that
type-tagged constants (``Constant(True)`` ≠ ``Constant(1)`` =
``Constant(1.0)`` ≠ ``Constant("1")``) keep their identities through
the encoding, that a query constant no fact carries matches nothing,
and that the join encodes an already-rewritten pool without building
an ``Atom`` or a ``Variable``.
"""

from __future__ import annotations

import pytest

from repro.core.best_describe import BestDescriptionSearch
from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.dl.ontology import Ontology, subrole
from repro.engine.batch_kernel import MultiLabelingBatchKernel
from repro.engine.kernel import PoolMatchKernel
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.errors import CertainAnswerError
from repro.obdm.database import SourceDatabase
from repro.obdm.mapping import Mapping
from repro.obdm.schema import SourceSchema
from repro.obdm.specification import OBDMSpecification
from repro.obdm.system import OBDMSystem
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries, query_key
from repro.workloads.probes import (
    PROBE_DOMAINS,
    build_probe_system,
    oracle_row,
    probe_labeling,
    probe_labelings,
    probe_pool,
)

pytestmark = pytest.mark.kernel


# The per-domain probe systems/pools are shared with the other
# differential suites (repro.workloads.probes) — one definition, so no
# two suites can ever validate diverging workloads.
DOMAINS = PROBE_DOMAINS
_system = build_probe_system
_labeling = probe_labeling
_candidate_pool = probe_pool


_REFERENCE_CACHE = {}


def _reference_report(domain: str, strategy=None):
    """The per-pair oracle report, computed once."""
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
def test_kernel_identical_to_per_pair(domain):
    """Kernel rows/scores/reports match the per-pair path."""
    reference = _reference_report(domain)
    system = _system(domain)
    report = OntologyExplainer(system).explain(
        _labeling(system), candidates=_candidate_pool(system), top_k=None
    )
    assert report.render(top_k=None) == reference.render(top_k=None), (
        f"{domain}: kernel report diverged from the per-pair oracle"
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


@pytest.mark.parametrize("domain", DOMAINS)
def test_explain_batch_identical_under_chase_strategy(domain):
    """One batch fill over chase saturations ranks each labeling like the oracle."""
    oracle_system = _system(domain, strategy="chase", verdicts=False)
    oracle = OntologyExplainer(oracle_system)
    references = [
        oracle.explain(labeling, candidates=_candidate_pool(oracle_system), top_k=None)
        for labeling in probe_labelings(oracle_system, count=2)
    ]
    system = _system(domain, strategy="chase")
    stats = system.specification.engine.cache.stats
    reports = OntologyExplainer(system).explain_batch(
        probe_labelings(system, count=2), candidates=_candidate_pool(system), top_k=None
    )
    assert [report.render(top_k=None) for report in reports] == [
        reference.render(top_k=None) for reference in references
    ], f"{domain}: chase-strategy batch diverged from the per-pair oracle"
    assert stats.batch_dispatches == 1


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


# -- top_k == the ranking's prefix ---------------------------------------------


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
    """A counts-only criterion peaked at interior TP (not monotone in TP).

    A custom criterion is scored candidate by candidate, and the result
    must equal the exhaustive prefix.
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
    pruned = pruned_search.top_k(pool, 2)
    assert [(str(e.query), e.score) for e in pruned] == [
        (str(e.query), e.score) for e in exhaustive
    ]


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


# -- query validation ----------------------------------------------------------

INVALID_CANDIDATES = {
    "wrong-arity": (
        "q(x) :- Applicant(x, y)",
        "query atom Applicant(?x, ?y) has arity 2, but ontology predicate "
        "'Applicant' has arity 1",
    ),
    "unknown-predicate": (
        "q(x) :- Applicnt(x)",
        "query atom Applicnt(?x) uses predicate 'Applicnt' that is not in the "
        "ontology vocabulary",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_CANDIDATES))
@pytest.mark.parametrize("path", ["kernel", "per-pair"])
@pytest.mark.parametrize("strategy", ["rewriting", "chase"])
def test_both_strategies_refuse_queries_outside_the_vocabulary(strategy, path, case):
    text, message = INVALID_CANDIDATES[case]
    system = _system("loans", strategy=strategy, verdicts=path == "kernel")
    with pytest.raises(CertainAnswerError) as refused:
        OntologyExplainer(system).explain(
            _labeling(system), candidates=["q(x) :- Applicant(x)", text]
        )
    assert str(refused.value) == message


def test_chase_validates_each_query_once(monkeypatch):
    system = _system("loans", strategy="chase")
    rewriter = system.specification.engine._rewriter
    checked = []
    validate = rewriter.validate
    monkeypatch.setattr(
        rewriter, "validate", lambda query: checked.append(query) or validate(query)
    )
    pool = _candidate_pool(system)
    first, second = probe_labelings(system, count=2)
    OntologyExplainer(system).explain(first, candidates=pool)
    conjunctive = {query_key(query) for query in pool if isinstance(query, ConjunctiveQuery)}
    assert len(checked) == len(conjunctive)
    OntologyExplainer(system).explain(second, candidates=pool)
    assert len(checked) == len(conjunctive)


# -- the integer encoding --------------------------------------------------------


TYPED_VALUES = {"s1": True, "s2": 1, "s3": 1.0, "s4": "1", "s5": False, "s6": 0}


def _typed_system(strategy=None, verdicts: bool = True) -> OBDMSystem:
    """Items whose feature values collide under raw Python equality.

    ``True == 1 == 1.0`` and ``False == 0`` in Python; as constants only
    ``1`` and ``1.0`` are equal.  ``hasFlag ⊑ hasFeature`` puts a second
    source of ``True``/``0`` values behind a rewriting (or the chase).
    """
    schema = SourceSchema(name="S_typed")
    schema.declare("ITEM", ("item",))
    schema.declare("FEAT", ("item", "value"))
    schema.declare("FLAG", ("item", "value"))
    database = SourceDatabase(schema, name="D_typed")
    for item, value in TYPED_VALUES.items():
        database.add("ITEM", item)
        database.add("FEAT", item, value)
    database.add("FLAG", "s5", True)
    database.add("FLAG", "s3", 0)
    database.add("FLAG", "s6", "s6")
    ontology = Ontology(
        name="typed_O", concept_names=("Item",), role_names=("hasFeature", "hasFlag")
    )
    ontology.add_axiom(subrole("hasFlag", "hasFeature"))
    mapping = Mapping(name="M_typed")
    mapping.add_assertion("ITEM(x)", "Item(x)")
    mapping.add_assertion("FEAT(x, y)", "hasFeature(x, y)")
    mapping.add_assertion("FLAG(x, y)", "hasFlag(x, y)")
    specification = OBDMSpecification(ontology, schema, mapping, name="J_typed")
    if strategy is not None:
        specification = specification.with_strategy(strategy)
    specification.engine.verdicts.enabled = verdicts
    return OBDMSystem(specification, database, name="typed")


def _typed_queries():
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    feature = lambda subject, value: Atom("hasFeature", (subject, value))  # noqa: E731
    by_item = [
        ConjunctiveQuery((x,), (feature(x, Constant(value)),))
        for value in (True, 1, 1.0, "1", False, 0)
    ]
    by_item += [
        ConjunctiveQuery((x,), (Atom("hasFlag", (x, Constant(True))),)),
        ConjunctiveQuery((x,), (feature(x, y), feature(z, y), Atom("Item", (z,)))),
        ConjunctiveQuery((x,), (Atom("Item", (x,)), feature(x, y))),
        ConjunctiveQuery((x,), (feature(x, x),)),
        ConjunctiveQuery((x,), (Atom("Item", (x,)), feature(Constant("s3"), Constant(1)))),
    ]
    by_value = [
        ConjunctiveQuery((y,), (feature(x, y),)),
        ConjunctiveQuery((y,), (Atom("hasFlag", (x, y)),)),
        ConjunctiveQuery((y,), (feature(x, y), Atom("Item", (x,)))),
    ]
    absent = [
        ConjunctiveQuery((x,), (feature(x, Constant(2)),)),
        # Both constants occur, never in one fact.
        ConjunctiveQuery((x,), (Atom("Item", (x,)), feature(Constant("s2"), Constant(True)))),
        ConjunctiveQuery((x,), (Atom("Item", (x,)), feature(x, Constant("absent")))),
        ConjunctiveQuery((y,), (feature(x, y), feature(x, Constant(-1)))),
    ]
    return by_item, by_value, absent


@pytest.mark.parametrize("strategy", ["rewriting", "chase"])
def test_type_tagged_constants_keep_their_identity(strategy):
    """Kernel and batch-kernel rows equal the oracle's on colliding values."""
    system = _typed_system(strategy)
    checker = MatchEvaluator(_typed_system(strategy, verdicts=False), radius=1)
    evaluator = MatchEvaluator(system, radius=1)
    by_item, by_value, absent = _typed_queries()
    labelings = [
        Labeling(["s1", "s2", "s5"], ["s3", "s4", "s6"], name="items"),
        Labeling([True, 1], ["1", False, 0], name="values"),
    ]
    pools = [by_item + absent[:3], by_value + absent[3:]]
    layouts = [BorderColumns.from_labeling(evaluator, labeling) for labeling in labelings]
    batch_rows = MultiLabelingBatchKernel(evaluator, layouts).rows_for(pools)
    for columns, pool, rows in zip(layouts, pools, batch_rows):
        kernel = PoolMatchKernel(evaluator, columns)
        for query, row in zip(pool, rows):
            expected = oracle_row(checker, columns, query)
            assert row == kernel.row(query) == expected, f"{strategy}: {query}"
            if query in absent:
                assert row == 0, f"{strategy}: {query}"
    # Columns s1 s2 s5 | s3 s4 s6; rows of hasFeature(x, v) for v = True,
    # 1, 1.0, "1", False, 0 (s5 is flagged True, s3 flagged 0).
    assert batch_rows[0][:6] == [0b000101, 0b001010, 0b001010, 0b010000, 0b000100, 0b101000]


def test_match_state_builds_no_atom_or_variable(monkeypatch):
    """An already-rewritten pool is joined on ids alone."""
    system = _system("loans")
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, _labeling(system))
    pool = _candidate_pool(system)
    VerdictMatrix(evaluator, columns).build(pool)  # rewrites the pool, builds an index
    kernel = PoolMatchKernel(evaluator, columns)
    kernel.row(pool[0])  # this kernel's index
    built = []
    inside = []
    for cls in (Atom, Variable):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init):
            if inside:
                built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    match_state = PoolMatchKernel._match_state

    def traced(self, *args):
        inside.append(True)
        try:
            return match_state(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(PoolMatchKernel, "_match_state", traced)
    stats = system.specification.engine.cache.stats
    before = stats.as_dict()
    rows = [kernel.row(query) for query in pool]
    assert stats.delta_since(before)["rewriting_misses"] == 0
    assert stats.delta_since(before)["subquery_hits"] > 0
    assert any(rows)
    assert built == []
