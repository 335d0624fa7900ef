"""Production vs oracle: every served render equals the Definition 3.4 oracle.

One default :class:`~repro.service.ExplanationService` per case serves
the request kinds a deployment sees — a cold request, a warm repeat, a
labeling drift, a :class:`~repro.obdm.database.DatabaseDelta` and a
``warm_start`` fleet — and every render is compared with a *fresh*
system over the same database content whose
``engine.verdicts.enabled = False`` scores each (query, border) pair
through ``MatchEvaluator.matches_border``.  The cases cover the four
probe domains under the rewriting strategy plus one under the chase.

The multi-session delta cases hold several sessions at once —
overlapping borders, different positive/negative splits and two radii —
so a verdict bit scattered to the wrong session by the shared delta
dispatch changes some render.

The shared-border and tight-cap cases exercise the verdict column
store: a labeling sharing borders with an earlier one gathers their
cells instead of re-evaluating them, and under
``CacheLimits(verdict_queries=2, border_aboxes=2)`` the store evicts
constantly while every render must still equal the oracle.

The generated-pool cases send ``explain(labeling)`` with no candidate
list, so the pool comes from bottom-up generation and, after the first
request, from the candidate table: a warm repeat, a labeling sharing a
positive and a request after a delta are each compared with a fresh
oracle system that generates its own pool.
"""

from __future__ import annotations

import pytest

from repro.core.candidates import CandidateConfig
from repro.core.labeling import Labeling
from repro.engine.cache import CacheLimits
from repro.experiments.database_drift_exp import build_delta_stream
from repro.experiments.kernel_exp import (
    PROBE_DOMAINS,
    build_probe_system,
    probe_labeling,
    probe_labelings,
    probe_pool,
)
from repro.obdm.system import OBDMSystem
from repro.service import ExplanationService

pytestmark = pytest.mark.service

CASES = [(domain, None) for domain in PROBE_DOMAINS] + [("university", "chase")]
CASE_IDS = [f"{d}-{s or 'rewriting'}" for d, s in CASES]


def _render(service: ExplanationService, labeling: Labeling, pool, radius=None) -> str:
    report = service.explain(labeling, radius=radius, candidates=pool, top_k=None)
    return report.render(top_k=None)


def _oracle_render(domain, strategy, database, labeling, pool, radius=1) -> str:
    oracle = build_probe_system(domain, strategy=strategy, verdicts=False)
    system = OBDMSystem(oracle.specification, database.copy(), name=f"{domain}_oracle")
    return _render(ExplanationService(system, radius=radius), labeling, pool)


def _anchored_delta(database, constant):
    """One delta retiring facts around *constant* (see ``build_delta_stream``)."""
    [delta] = build_delta_stream(database, Labeling(positives=[constant], negatives=[]), steps=1)
    return delta


def _drifted(system, labeling: Labeling) -> Labeling:
    """Same name, one tuple removed, one flipped, one added per side."""
    constants = sorted(system.domain(), key=repr)[:8]
    assert set(labeling.tuples()) == {(c,) for c in constants[:6]}
    return Labeling(
        positives=[constants[1], constants[2], constants[3], constants[6]],
        negatives=[constants[4], constants[5], constants[7]],
        name=labeling.name,
    )


TIGHT = CacheLimits(verdict_queries=2, border_aboxes=2)


@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
def test_served_renders_equal_oracle(domain, strategy):
    _assert_served_steps_equal_oracle(domain, strategy)


@pytest.mark.verdicts
@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
def test_tight_caps_render_equal_oracle(domain, strategy):
    _assert_served_steps_equal_oracle(domain, strategy, TIGHT)


def _assert_served_steps_equal_oracle(domain, strategy, limits=None):
    """Cold, warm, drift, delta and ``warm_start`` requests vs the oracle."""
    system = build_probe_system(domain, strategy=strategy)
    service = ExplanationService(system, radius=1, cache_limits=limits)
    database = system.database
    labeling = probe_labeling(system)
    pool = probe_pool(system)

    def assert_oracle(step: str, served: str, request: Labeling) -> None:
        expected = _oracle_render(domain, strategy, database, request, pool)
        assert served == expected, f"{domain}/{strategy}: {step} diverged from the oracle"

    assert_oracle("cold request", _render(service, labeling, pool), labeling)
    assert_oracle("warm repeat", _render(service, labeling, pool), labeling)
    assert (service.stats.cold_builds, service.stats.warm_hits) == (1, 1)

    drifted = _drifted(system, labeling)
    assert_oracle("labeling drift", _render(service, drifted, pool), drifted)
    assert service.stats.drift_updates == 1

    [delta] = build_delta_stream(database, drifted, steps=1)
    accounting = service.apply_delta(delta)
    assert accounting["sessions_updated"] >= 1, "the delta touched no live session"
    assert_oracle("database delta", _render(service, drifted, pool), drifted)
    assert service.stats.warm_hits == 2, "the delta did not keep the session warm"

    fleet = probe_labelings(system, count=3)[1:]
    counts = service.warm_start(fleet, candidates=pool)
    assert counts["batched"] == 1 and counts["rows"] > 0
    for member in fleet:
        assert_oracle(f"warm_start {member.name}", _render(service, member, pool), member)
    assert service.stats.warm_hits == 2 + len(fleet)
    if limits is not None:
        assert service.cache_stats.evictions > 0


@pytest.mark.verdicts
@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
def test_labeling_sharing_borders_equals_oracle(domain, strategy):
    system = build_probe_system(domain, strategy=strategy)
    service = ExplanationService(system, radius=1)
    pool = probe_pool(system)
    first, second = probe_labelings(system, count=2)
    assert _render(service, first, pool) == _oracle_render(
        domain, strategy, system.database, first, pool
    )
    shared = len(set(first.tuples()) & set(second.tuples()))
    assert 0 < shared < len(second.tuples())
    before = service.cache_stats.as_dict()
    served = _render(service, second, pool)
    assert served == _oracle_render(domain, strategy, system.database, second, pool)
    spent = service.cache_stats.delta_since(before)
    assert service.stats.cold_builds == 2
    assert spent["verdict_cells_evaluated"] == len(pool) * (len(second.tuples()) - shared)
    assert spent["verdict_cells_reused"] == len(pool) * shared


def _sessions(system):
    """Three radius-1 sessions and one radius-0 session over 8 constants.

    The radius-1 labelings overlap pairwise and label shared constants
    differently (``c0`` is positive in one, negative in another); the
    radius-0 session is served by a second evaluator, hence a second
    dispatch group.
    """
    c = sorted(system.domain(), key=repr)[:8]
    return c, [
        (Labeling(positives=c[0:3], negatives=c[3:6], name="split_a"), 1),
        (Labeling(positives=[c[3], c[4]], negatives=[c[0], c[1], c[6]], name="split_b"), 1),
        (Labeling(positives=[c[1], c[5], c[6], c[7]], negatives=[c[2], c[3]], name="split_c"), 1),
        (Labeling(positives=[c[0], c[3]], negatives=[c[1], c[5]], name="split_d"), 0),
    ]


@pytest.mark.delta
@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
def test_multi_session_delta_renders_equal_oracle(domain, strategy):
    system = build_probe_system(domain, strategy=strategy)
    service = ExplanationService(system, radius=1)
    database = system.database
    pool = probe_pool(system)
    constants, requests = _sessions(system)
    for labeling, radius in requests:
        _render(service, labeling, pool, radius)
    sessions = [session for _key, session in service._sessions.items()]
    assert len(sessions) == len(requests)

    def assert_all_oracle(step: str) -> None:
        for labeling, radius in requests:
            expected = _oracle_render(domain, strategy, database, labeling, pool, radius)
            served = _render(service, labeling, pool, radius)
            assert served == expected, (
                f"{domain}/{strategy}: {labeling.name} (radius {radius}) diverged "
                f"from the oracle after {step}"
            )

    # Constant 1 is labeled in every session: the delta changes borders
    # of all four, at both radii, in one apply_delta call.
    before = service.cache_stats.as_dict()
    accounting = service.apply_delta(_anchored_delta(database, constants[1]))
    assert accounting["sessions_updated"] == len(requests)
    assert service.cache_stats.delta_since(before)["batch_dispatches"] == 2
    assert_all_oracle("a delta touching every session")

    # Constant 2 is not labeled in the radius-0 session: some sessions'
    # borders survive this delta, and their matrices must come back as
    # the very same objects.
    matrices = [session.matrix for session in sessions]
    service.apply_delta(_anchored_delta(database, constants[2]))
    untouched = 0
    for session, old in zip(sessions, matrices):
        evaluator = service.evaluator(session.radius)
        current = [evaluator.border_of(value, session.radius) for value in old.columns.tuples]
        if list(old.columns.borders) == current:
            untouched += 1
            assert session.matrix is old, f"{session.labeling.name}: untouched matrix replaced"
        else:
            assert session.matrix is not old, f"{session.labeling.name}: changed matrix kept"
    assert 0 < untouched < len(sessions)
    assert_all_oracle("a delta touching some sessions")


@pytest.mark.delta
def test_delta_maintains_every_session_under_tight_caps():
    system = build_probe_system("loans")
    service = ExplanationService(system, radius=1, cache_limits=TIGHT)
    pool = probe_pool(system)
    labelings = probe_labelings(system, count=4)
    for labeling in labelings:
        _render(service, labeling, pool)

    # Constant 3 is labeled in all four shifted windows.
    constant = sorted(system.domain(), key=repr)[3]
    before = service.cache_stats.as_dict()
    accounting = service.apply_delta(_anchored_delta(system.database, constant))
    spent = service.cache_stats.delta_since(before)
    assert accounting["sessions_updated"] == len(labelings)
    assert service.stats.delta_sessions_updated == len(labelings)
    assert spent["batch_dispatches"] == 1
    warm_hits = service.stats.warm_hits
    for labeling in labelings:
        expected = _oracle_render("loans", None, system.database, labeling, pool)
        assert _render(service, labeling, pool) == expected, labeling.name
    assert service.stats.warm_hits == warm_hits + len(labelings)


GENERATION = CandidateConfig(max_atoms=2, max_candidates=300)


def _generated_render(service: ExplanationService, labeling: Labeling) -> str:
    report = service.explain(labeling, candidate_config=GENERATION, top_k=None)
    return report.render(top_k=None)


@pytest.mark.candidates
@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
def test_generated_pool_renders_equal_oracle(domain, strategy):
    system = build_probe_system(domain, strategy=strategy)
    service = ExplanationService(system, radius=1)
    database = system.database
    stats = service.cache_stats

    def assert_oracle(step: str, request: Labeling):
        before = stats.as_dict()
        served = _generated_render(service, request)
        oracle = build_probe_system(domain, strategy=strategy, verdicts=False)
        fresh = OBDMSystem(oracle.specification, database.copy(), name=f"{domain}_oracle")
        expected = _generated_render(ExplanationService(fresh, radius=1), request)
        assert served == expected, f"{domain}/{strategy}: {step} diverged from the oracle"
        spent = stats.delta_since(before)
        return spent["candidate_hits"], spent["candidate_misses"]

    labeling = probe_labeling(system)
    hits, misses = assert_oracle("cold request", labeling)
    assert hits == 0 and misses >= 1
    assert assert_oracle("warm repeat", labeling) == (misses, 0)

    positives = sorted(labeling.positives, key=repr)
    outside = [
        constant for constant in sorted(system.domain(), key=repr)
        if (constant,) not in set(labeling.tuples())
    ]
    shared = Labeling(positives=[positives[0], outside[0]], negatives=outside[1:3], name="shared")
    hits, misses = assert_oracle("labeling sharing a positive", shared)
    assert hits == 1 and misses <= 1

    [delta] = build_delta_stream(database, shared, steps=1)
    service.apply_delta(delta)
    assert_oracle("database delta", shared)
