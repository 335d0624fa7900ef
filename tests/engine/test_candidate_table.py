"""The candidate table: each border's generated candidates, abstracted once.

``CandidateGenerator.candidates_for`` keeps a border's unpruned
candidate list in the specification's ``EvaluationCache`` under (border,
``max_atoms``, ``max_kept_constants``, ``saturate``,
``include_most_specific``).  The suite pins its exact hit/miss
accounting, the paths that bypass it (a pruner, a disabled cache), delta
invalidation, the ``border_aboxes`` bound, snapshot compatibility and a
concurrent race, always checking that a tabled pool equals a freshly
generated one.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.best_describe import BestDescriptionSearch
from repro.core.border import BorderComputer
from repro.core.candidates import CandidateConfig, CandidateGenerator
from repro.core.labeling import Labeling
from repro.engine.cache import SNAPSHOT_VERSION, CacheLimits, EvaluationCache
from repro.experiments.database_drift_exp import build_delta_stream
from repro.obdm.system import OBDMSystem
from repro.ontologies.university import build_university_system
from repro.service import ExplanationService

pytestmark = pytest.mark.candidates

CONFIG = CandidateConfig(max_atoms=2)


def counts(stats, before):
    spent = stats.delta_since(before)
    return spent["candidate_hits"], spent["candidate_misses"]


def explain(service: ExplanationService, labeling: Labeling, radius=None) -> str:
    report = service.explain(labeling, radius=radius, candidate_config=CONFIG, top_k=None)
    return report.render(top_k=None)


def fresh_pool(system: OBDMSystem, labeling: Labeling):
    """The pool a new system over the same content generates (empty table)."""
    fresh = OBDMSystem(build_university_system().specification, system.database.copy())
    return [str(query) for query in CandidateGenerator(fresh, 1, CONFIG).generate(labeling)]


def test_repeats_hit_and_a_shared_positive_hits_once():
    service = ExplanationService(build_university_system(), radius=1)
    stats = service.cache_stats
    labeling = Labeling(positives=["A10", "B80"], negatives=["E25"], name="first")

    before = stats.as_dict()
    cold = explain(service, labeling)
    assert counts(stats, before) == (0, 2)
    assert service.size_report()["candidate_borders"] == 2

    before = stats.as_dict()
    assert explain(service, labeling) == cold
    assert counts(stats, before) == (2, 0)

    shared = Labeling(positives=["A10", "C12"], negatives=["E25"], name="second")
    before = stats.as_dict()
    explain(service, shared)
    assert counts(stats, before) == (1, 1)
    assert service.size_report()["candidate_borders"] == 3

    # Another generation shape is another entry, even for a known border.
    before = stats.as_dict()
    service.explain(labeling, candidate_config=CandidateConfig(max_atoms=1), top_k=None)
    assert counts(stats, before) == (0, 2)
    assert service.size_report()["candidate_borders"] == 5


def test_a_pruner_bypasses_the_table():
    system = build_university_system()
    cache = system.specification.engine.cache
    labeling = Labeling(positives=["A10", "B80"], negatives=["E25"])
    search = BestDescriptionSearch(system, labeling)
    pruner = search._generator_pruner()
    assert pruner is not None
    generator = CandidateGenerator(system, 1, CONFIG, evaluator=search.evaluator)
    before = cache.stats.as_dict()
    pruned = generator.generate(labeling, pruner=pruner)
    assert counts(cache.stats, before) == (0, 0)
    assert cache.size_report()["candidate_borders"] == 0
    assert pruned.checked > 0
    # The unpruned pool then fills the table and contains every survivor.
    full = generator.generate(labeling)
    assert counts(cache.stats, before) == (0, 2)
    assert {query.signature() for query in pruned} <= {query.signature() for query in full}


def test_a_disabled_cache_bypasses_the_table():
    system = build_university_system()
    cache = system.specification.engine.cache
    cache.enabled = False
    labeling = Labeling(positives=["A10", "B80"], negatives=["E25"])
    generator = CandidateGenerator(system, 1, CONFIG)
    before = cache.stats.as_dict()
    pools = [[str(query) for query in generator.generate(labeling)] for _ in range(2)]
    assert pools[0] == pools[1] == fresh_pool(system, labeling)
    assert counts(cache.stats, before) == (0, 4)  # every lookup recomputes
    assert cache.size_report()["candidate_borders"] == 0


def _delta_touching_only(system, touched, kept, radius):
    """A delta of ``build_delta_stream`` anchored at *touched* that leaves
    *kept*'s border (at *radius*) alone."""
    [delta] = build_delta_stream(system.database, Labeling(positives=[touched], negatives=[]), steps=1)
    border = BorderComputer(system.database).border((kept,), radius)
    assert delta.constants().isdisjoint(set(border.tuple) | set(border.constants()))
    return delta


def test_a_delta_drops_exactly_the_touched_border():
    system = build_university_system()
    service = ExplanationService(system, radius=1)
    labeling = Labeling(positives=["B80", "C12"], negatives=["E25"], name="lam")
    explain(service, labeling)
    assert service.size_report()["candidate_borders"] == 2

    service.apply_delta(_delta_touching_only(system, "C12", "B80", radius=1))
    assert service.size_report()["candidate_borders"] == 1

    before = service.cache_stats.as_dict()
    served = explain(service, labeling)
    assert counts(service.cache_stats, before) == (1, 1)  # B80 tabled, C12 regenerated
    generator = CandidateGenerator(
        system, 1, CONFIG, border_computer=service._border_computer, evaluator=service.evaluator(1)
    )
    assert [str(query) for query in generator.generate(labeling)] == fresh_pool(system, labeling)
    fresh = OBDMSystem(build_university_system().specification, system.database.copy())
    assert served == explain(ExplanationService(fresh, radius=1), labeling)


def test_the_table_is_bounded_by_border_aboxes():
    cache = EvaluationCache(saturator=lambda facts: facts, rewriter=lambda query: query)
    cache.configure_limits(CacheLimits(border_aboxes=2))
    computed = []

    def lookup(key):
        return cache.candidates(key, lambda: computed.append(key) or [key])

    for key in ("a", "b", "c", "d", "e"):
        assert lookup(key) == (key,)
    assert cache.size_report()["candidate_borders"] == 2
    assert cache.stats.evictions == 3
    assert lookup("e") == ("e",) and lookup("a") == ("a",)  # "a" was evicted
    assert computed == ["a", "b", "c", "d", "e", "a"]
    assert (cache.stats.candidate_hits, cache.stats.candidate_misses) == (1, 6)
    assert cache.stats.evictions == 4

    service = ExplanationService(
        build_university_system(), radius=1, cache_limits=CacheLimits(border_aboxes=1)
    )
    before = service.cache_stats.as_dict()
    labeling = Labeling(positives=["A10", "B80", "C12"], negatives=["E25"])
    explain(service, labeling)
    assert service.size_report()["candidate_borders"] == 1
    assert service.cache_stats.delta_since(before)["evictions"] >= 2


def test_snapshots_leave_the_table_out(tmp_path):
    system = build_university_system()
    service = ExplanationService(system, radius=1)
    labeling = Labeling(positives=["A10", "B80"], negatives=["E25"], name="lam")
    rendered = explain(service, labeling)
    cache = service.cache
    state = cache.snapshot_state()
    assert state["version"] == SNAPSHOT_VERSION == 2
    assert set(state) == {
        "magic", "version", "fingerprint", "saturated", "rewritings",
        "border_aboxes", "matches", "verdict_queries", "verdict_columns",
    }
    path = tmp_path / "cache.snapshot"
    service.save(path)
    restarted = ExplanationService(build_university_system(), radius=1)
    restarted.load(path)
    assert restarted.size_report()["candidate_borders"] == 0
    before = restarted.cache_stats.as_dict()
    assert explain(restarted, labeling) == rendered
    assert counts(restarted.cache_stats, before) == (0, 2)

    # Round trip of the cache itself: the same layers come back.
    path = tmp_path / "engine.snapshot"
    cache.save(path)
    loaded = EvaluationCache(saturator=lambda facts: facts, rewriter=lambda query: query)
    added = loaded.load(path)
    assert set(added) == {"saturations", "border_aboxes", "matches", "rewritings", "verdict_rows"}
    assert loaded.size_report()["candidate_borders"] == 0


def test_concurrent_requests_share_the_table():
    """8 threads on one service: identical renders, every lookup counted."""
    reference_service = ExplanationService(build_university_system(), radius=1)
    students = ["A10", "B80", "C12", "D50"]
    labelings = [
        Labeling(positives=[students[i % 4], students[(i + 1) % 4]], negatives=["E25"], name=f"l{i}")
        for i in range(8)
    ]
    expected = [explain(reference_service, labeling) for labeling in labelings]
    lookups_per_request = 2  # two positives, the pool never fills

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(3):
            service = ExplanationService(build_university_system(), radius=1)
            results = [None] * len(labelings)
            errors = []
            barrier = threading.Barrier(len(labelings))
            deadline = time.monotonic() + 60

            def request(position):
                try:
                    barrier.wait(30)
                    results[position] = []
                    while len(results[position]) < 3 and time.monotonic() < deadline:
                        results[position].append(explain(service, labelings[position]))
                except BaseException as error:  # surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=request, args=(i,)) for i in range(len(labelings))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(90)
                assert not thread.is_alive()
            assert not errors, errors
            for position, renders in enumerate(results):
                assert renders == [expected[position]] * 3, labelings[position].name
            stats = service.cache_stats
            lookups = len(labelings) * 3 * lookups_per_request
            assert stats.candidate_hits + stats.candidate_misses == lookups
            assert len(students) <= stats.candidate_misses < lookups
            assert service.size_report()["candidate_borders"] == len(students)
    finally:
        sys.setswitchinterval(interval)
