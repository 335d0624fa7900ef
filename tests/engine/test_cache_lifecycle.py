"""Cache-lifecycle tests: bounding, eviction, persistence, drift.

Three properties must survive every lifecycle event:

* **transparency** — eviction and snapshot loading may only change how
  fast an answer is produced, never the answer;
* **isolation** — a :class:`VerdictMatrix` copies the cells it gathers
  from the shared verdict store, so evicting store entries never
  changes a row it serves, and a later matrix recomputes what was
  evicted;
* **incrementality** — :meth:`VerdictMatrix.apply_drift` must be
  byte-identical to a cold rebuild over the drifted labeling, across
  all four domain ontologies and both batch executors.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.engine import CacheLimits, EvaluationCache, LRUStore
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.errors import ExplanationError
from repro.obdm.system import OBDMSystem
from repro.ontologies.compas import build_compas_specification
from repro.ontologies.loans import build_loan_specification
from repro.ontologies.movies import build_movie_specification
from repro.ontologies.university import build_university_database, build_university_specification
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.workloads.compas_gen import CompasWorkloadConfig, generate_compas_workload
from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from repro.workloads.movies_gen import MovieWorkloadConfig, generate_movie_workload


# -- small deterministic databases per domain --------------------------------


def _university():
    specification = build_university_specification()
    return specification, build_university_database(specification.schema)


def _compas():
    specification = build_compas_specification()
    database = generate_compas_workload(CompasWorkloadConfig(persons=12, seed=11)).database
    return specification, database


def _loans():
    specification = build_loan_specification()
    database = generate_loan_workload(LoanWorkloadConfig(applicants=12, seed=7)).database
    return specification, database


def _movies():
    specification = build_movie_specification()
    database = generate_movie_workload(
        MovieWorkloadConfig(movies=8, directors=3, viewers=5, critics=2, seed=3)
    ).database
    return specification, database


DOMAIN_BUILDERS = {
    "university": _university,
    "compas": _compas,
    "loans": _loans,
    "movies": _movies,
}


def _fresh_system(domain: str) -> OBDMSystem:
    specification, database = DOMAIN_BUILDERS[domain]()
    return OBDMSystem(specification, database, name=f"{domain}_lifecycle")


def _domain_labelings(system: OBDMSystem):
    """An initial labeling and a drifted successor (add + remove + flip)."""
    constants = sorted(system.domain(), key=repr)[:7]
    initial = Labeling(positives=constants[:3], negatives=constants[3:5], name="drifting")
    drifted = Labeling(
        # constants[0] removed, constants[3] flipped to positive,
        # constants[5] and constants[6] added (one per side).
        positives=[constants[1], constants[2], constants[3], constants[5]],
        negatives=[constants[4], constants[6]],
        name="drifting",
    )
    return initial, drifted


def _domain_queries(system: OBDMSystem):
    ontology = system.ontology
    queries = [
        ConjunctiveQuery.of(("?x",), (Atom.of(concept, "?x"),), name=f"q_{concept}")
        for concept in sorted(ontology.concept_names)[:3]
    ]
    for role in sorted(ontology.role_names)[:2]:
        queries.append(
            ConjunctiveQuery.of(("?x",), (Atom.of(role, "?x", "?y"),), name=f"q_{role}")
        )
    assert len(queries) >= 2, f"no probe queries for {system.name}"
    # A UCQ probe: cold builds OR disjunct rows while drift evaluates
    # fresh columns per query, so the differential must cover unions too.
    queries.append(UnionOfConjunctiveQueries((queries[0], queries[1])))
    return queries


# -- LRUStore unit behaviour --------------------------------------------------


class TestLRUStore:
    def test_unbounded_by_default(self):
        store = LRUStore()
        for index in range(100):
            store.put(index, index)
        assert len(store) == 100

    def test_capacity_evicts_least_recently_used(self):
        store = LRUStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refresh "a": "b" is now LRU
        store.put("c", 3)
        assert "b" not in store
        assert store.get("a") == 1 and store.get("c") == 3

    def test_peek_does_not_refresh_recency(self):
        store = LRUStore(capacity=2)
        store.put("a", 1)
        store.put("b", 2)
        store.get("a", touch=False)  # peek only: "a" stays LRU
        store.put("c", 3)
        assert "a" not in store

    def test_evictions_reported_to_stats(self):
        from repro.engine import CacheStats

        stats = CacheStats()
        store = LRUStore(capacity=1, stats=stats)
        store.put("a", 1)
        store.put("b", 2)
        store.put("c", 3)
        assert stats.evictions == 2

    def test_get_or_create_is_stable(self):
        store = LRUStore()
        first = store.get_or_create("k", dict)
        second = store.get_or_create("k", dict)
        assert first is second

    def test_merge_missing_prefers_live_entries(self):
        store = LRUStore()
        store.put("a", "live")
        added = store.merge_missing([("a", "persisted"), ("b", "persisted")])
        assert added == 1
        assert store.get("a") == "live"
        assert store.get("b") == "persisted"

    def test_merge_missing_overflow_evicts_itself_not_live_entries(self):
        # Persisted entries enter at the cold end: loading a snapshot into
        # a full store must never push out the hotter live entries — and
        # self-evicted inserts must not be reported as added.
        store = LRUStore(capacity=2)
        store.put("hot1", "live")
        store.put("hot2", "live")
        added = store.merge_missing([("cold1", "persisted"), ("cold2", "persisted")])
        assert added == 0
        assert store.get("hot1") == "live"
        assert store.get("hot2") == "live"
        assert "cold1" not in store and "cold2" not in store

    def test_merge_missing_preserves_persisted_cohort_order(self):
        # items() snapshots are oldest-first; after a merge the hottest
        # persisted entry must still be the last of the cohort to evict.
        store = LRUStore(capacity=3)
        store.merge_missing([("old", 1), ("mid", 2), ("hot", 3)])
        store.put("live", 4)  # evicts exactly one persisted entry
        assert "old" not in store
        assert store.get("mid", touch=False) == 2
        assert store.get("hot", touch=False) == 3

    def test_capacity_one_minimum(self):
        with pytest.raises(ValueError):
            LRUStore(capacity=0)
        with pytest.raises(ValueError):
            LRUStore().set_capacity(0)

    def test_pickle_round_trip_keeps_entries_and_capacity(self):
        store = LRUStore(capacity=3)
        store.put("a", 1)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("a") == 1
        assert clone.capacity == 3
        clone.put("b", 2)  # the rebuilt lock must work


# -- bounded EvaluationCache ---------------------------------------------------


class TestBoundedEvaluationCache:
    @staticmethod
    def _make(limits=None):
        saturations = []

        def saturator(facts):
            saturations.append(facts)
            return facts

        cache = EvaluationCache(saturator=saturator, rewriter=lambda q: q, limits=limits)
        return cache, saturations

    def test_saturation_layer_is_bounded(self):
        cache, saturations = self._make(CacheLimits(saturations=2))
        fact_sets = [frozenset({Atom.of("C", f"a{i}")}) for i in range(3)]
        for facts in fact_sets:
            cache.saturated_index(facts)
        assert len(saturations) == 3
        assert cache.stats.evictions == 1
        cache.saturated_index(fact_sets[0])  # evicted: recomputed
        assert len(saturations) == 4
        cache.saturated_index(fact_sets[2])  # resident: memo hit
        assert len(saturations) == 4

    def test_configure_limits_shrinks_live_layers(self):
        cache, _ = self._make()
        for index in range(5):
            cache.saturated_index(frozenset({Atom.of("C", f"a{index}")}))
        assert cache.size_report()["saturations"] == 5
        cache.configure_limits(CacheLimits(saturations=2))
        assert cache.size_report()["saturations"] == 2
        assert cache.stats.evictions == 3

    def test_verdict_store_is_bounded(self):
        cache, _ = self._make(CacheLimits(verdict_queries=1, border_aboxes=1))
        store = cache.verdict_store()
        store.write(["b1"], [(("q1",), "q1")], np.ones((1, 1)), np.ones((1, 1)))
        store.write(["b2"], [(("q2",), "q2")], np.ones((1, 1)), np.zeros((1, 1)))
        assert cache.stats.evictions == 2  # q1 and column b1
        evaluated, _ = store.gather(["b1", "b2"], [("q1",), ("q2",)])
        assert evaluated.tolist() == [[0, 0], [0, 1]]
        report = cache.size_report()
        assert (report["verdict_queries"], report["verdict_columns"]) == (1, 1)

    def test_saturation_lock_table_does_not_grow_with_traffic(self):
        cache, _ = self._make(CacheLimits(saturations=2))
        for index in range(16):
            cache.saturated_index(frozenset({Atom.of("C", f"a{index}")}))
        assert len(cache._saturation_locks) == 0

    def test_size_report_counts_rows_across_layouts(self):
        # Rows are keyed by query, not by layout: a query evaluated on the
        # borders of two layouts is one row.
        cache, _ = self._make()
        store = cache.verdict_store()
        queries = [(("q1",), "q1"), (("q2",), "q2")]
        store.write(["a1", "a2"], queries, np.ones((2, 2)), np.eye(2))
        store.write(["b1"], queries[:1], np.ones((1, 1)), np.ones((1, 1)))
        report = cache.size_report()
        assert report["verdict_columns"] == 3
        assert report["verdict_rows"] == 2


# -- persistence ---------------------------------------------------------------


class TestSnapshotPersistence:
    def test_round_trip_restores_every_layer(self, tmp_path):
        cache, saturations = TestBoundedEvaluationCache._make()
        facts = frozenset({Atom.of("C", "a")})
        cache.saturated_index(facts)
        cache.match(("verdict-key",), lambda: True)
        cache.border_abox(facts, lambda: "abox")
        cache.verdict_store().write(["b1", "b2"], [(("q",), "q")], np.ones((1, 2)), np.array([[1, 0]]))
        path = tmp_path / "snapshot.pkl"
        cache.save(path)

        fresh, fresh_saturations = TestBoundedEvaluationCache._make()
        added = fresh.load(path)
        assert added["saturations"] == 1
        assert added["matches"] == 1
        assert added["border_aboxes"] == 1
        assert added["verdict_rows"] == 1
        fresh.saturated_index(facts)
        assert fresh_saturations == []  # served from the snapshot
        assert fresh.stats.saturation_hits == 1
        assert fresh.match(("verdict-key",), lambda: False) is True
        evaluated, matched = fresh.verdict_store().gather(["b1", "b2"], [("q",)])
        assert evaluated.tolist() == [[1, 1]] and matched.tolist() == [[1, 0]]

    def test_load_keeps_live_verdict_queries(self, tmp_path):
        # Persisted queries and columns enter at the cold end, like every
        # other layer: loading a snapshot into a full bounded store must
        # not evict the live entries.
        ones = np.ones((2, 1))
        source, _ = TestBoundedEvaluationCache._make()
        source.verdict_store().write(["cold"], [(("a",), "a"), (("b",), "b")], ones, ones)
        path = tmp_path / "snapshot.pkl"
        source.save(path)

        target, _ = TestBoundedEvaluationCache._make(
            CacheLimits(verdict_queries=2, border_aboxes=1)
        )
        target.verdict_store().write(["hot"], [(("h1",), "h1"), (("h2",), "h2")], ones, ones)
        assert target.load(path)["verdict_rows"] == 0
        assert target.stats.evictions == 0
        evaluated, _ = target.verdict_store().gather(["hot", "cold"], [("h1",), ("h2",), ("a",)])
        assert evaluated.tolist() == [[1, 0], [1, 0], [0, 0]]

    def test_load_merges_row_stores_and_live_entries_win(self, tmp_path):
        # The snapshot's ids are remapped into the live registry and merged
        # cell by cell; a cell the live store already holds wins.
        cache, _ = TestBoundedEvaluationCache._make()
        queries = [(("q1",), "q1"), (("q2",), "q2")]
        cache.verdict_store().write(["b"], queries, np.ones((2, 1)), np.ones((2, 1)))
        path = tmp_path / "snapshot.pkl"
        cache.save(path)
        target, _ = TestBoundedEvaluationCache._make()
        store = target.verdict_store()
        # Live ids differ from the snapshot's: q0 takes id 0, q1 id 1.
        store.write(["b"], [(("q0",), "q0"), queries[0]], np.ones((2, 1)), np.zeros((2, 1)))
        added = target.load(path)
        assert added["verdict_rows"] == 1  # only q2 gained a cell
        evaluated, matched = store.gather(["b"], [("q0",), ("q1",), ("q2",)])
        assert evaluated.tolist() == [[1], [1], [1]]
        assert matched.tolist() == [[0], [0], [1]]  # q1's live verdict won

    def test_version_1_snapshots_are_refused(self, tmp_path):
        # SNAPSHOT_VERSION 2 carries the column store instead of per-layout
        # row dicts; an older artifact is refused through ValueError, which
        # a warm boot degrades to a cold start.
        from repro.gateway import boot_warm
        from repro.ontologies.university import build_university_system
        from repro.service import ExplanationService

        cache, _ = TestBoundedEvaluationCache._make()
        state = cache.snapshot_state()
        for key in ("verdict_queries", "verdict_columns"):
            del state[key]
        state.update(version=1, verdict_rows=[(("verdict_columns", 1, 1, ()), {("q",): 1})])
        path = tmp_path / "v1.pkl"
        with open(path, "wb") as handle:
            pickle.dump(state, handle)
        with pytest.raises(ValueError, match="version 1"):
            cache.load(path)
        boot = boot_warm(ExplanationService(build_university_system()), path)
        assert boot["warm"] is False and "version 1" in boot["reason"]

    def test_border_pickle_drops_cached_hash(self):
        # Border hashes are salted per process (PYTHONHASHSEED); a pickled
        # cached hash would make every persisted memo entry keyed by a
        # border unreachable in the loading process.
        system = _fresh_system("university")
        from repro.core.border import BorderComputer

        border = BorderComputer(system.database).border("A10", 1)
        hash(border)  # populate the cache
        assert "_cached_hash" in border.__dict__
        clone = pickle.loads(pickle.dumps(border))
        assert "_cached_hash" not in clone.__dict__
        assert clone == border and hash(clone) == hash(border)

    @pytest.mark.slow
    def test_snapshot_is_warm_across_hash_randomized_processes(self, tmp_path):
        # The whole point of save()/load() is surviving a *real* restart,
        # where PYTHONHASHSEED differs.  Save in one interpreter, load in
        # another with a different seed, and require warm verdict rows.
        import subprocess
        import sys
        import textwrap

        path = tmp_path / "cross_process.cache"
        script = textwrap.dedent(
            """
            import sys
            from repro import ExplanationService, Labeling
            from repro.ontologies.university import build_university_system

            mode, path = sys.argv[1], sys.argv[2]
            service = ExplanationService(build_university_system())
            labeling = Labeling(
                positives=["A10", "B80", "C12", "D50"], negatives=["E25"])
            if mode == "save":
                service.explain(labeling)
                service.save(path)
            else:
                service.load(path)
                service.explain(labeling)
                stats = service.cache_stats
                assert stats.verdict_row_hits > 0, stats.as_dict()
                assert stats.verdict_row_misses == 0, stats.as_dict()
                assert stats.match_misses == 0, stats.as_dict()
            """
        )

        source_root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )

        def run(mode: str, seed: str) -> None:
            environment = dict(os.environ)
            environment["PYTHONHASHSEED"] = seed
            inherited = environment.get("PYTHONPATH")
            environment["PYTHONPATH"] = (
                source_root if not inherited else source_root + os.pathsep + inherited
            )
            completed = subprocess.run(
                [sys.executable, "-c", script, mode, str(path)],
                capture_output=True,
                text=True,
                env=environment,
            )
            assert completed.returncode == 0, completed.stderr

        run("save", seed="1")
        run("load", seed="2")

    def test_load_rejects_snapshots_from_other_specifications(self, tmp_path):
        # Memo keys are content-addressed only *within* one specification:
        # a snapshot computed under another ontology/mapping maps equal
        # keys to different values and must be refused, not merged.
        path = tmp_path / "university.cache"
        university = _fresh_system("university").specification.engine
        university.save_cache(path)
        loans = _fresh_system("loans").specification.engine
        with pytest.raises(ValueError):
            loans.load_cache(path)
        # Same specification content: accepted.
        university_again = _fresh_system("university").specification.engine
        university_again.load_cache(path)

    def test_bounded_load_reports_only_surviving_entries(self, tmp_path):
        source, _ = TestBoundedEvaluationCache._make()
        source.match(("k1",), lambda: True)
        source.match(("k2",), lambda: True)
        path = tmp_path / "snapshot.pkl"
        source.save(path)
        target, _ = TestBoundedEvaluationCache._make(CacheLimits(matches=2))
        target.match(("live1",), lambda: True)
        target.match(("live2",), lambda: True)
        added = target.load(path)
        assert added["matches"] == 0  # both cold inserts self-evicted

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "a snapshot"}, handle)
        cache, _ = TestBoundedEvaluationCache._make()
        with pytest.raises(ValueError):
            cache.load(path)

    def test_load_rejects_unknown_versions(self, tmp_path):
        cache, _ = TestBoundedEvaluationCache._make()
        state = cache.snapshot_state()
        state["version"] = 999
        path = tmp_path / "future.pkl"
        with open(path, "wb") as handle:
            pickle.dump(state, handle)
        with pytest.raises(ValueError):
            cache.load(path)


# -- store eviction never reaches a matrix's rows --------------------------------


class TestMatrixStoreEviction:
    def test_store_eviction_never_changes_rows(self):
        system = _fresh_system("university")
        cache = system.specification.engine.cache
        cache.configure_limits(CacheLimits(verdict_queries=1, border_aboxes=1))
        evaluator = MatchEvaluator(system, radius=1)
        initial, drifted = _domain_labelings(system)
        queries = _domain_queries(system)

        matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, initial))
        matrix.build(queries)
        rows = [matrix.row(query) for query in queries]
        # A second labeling evicts the first one's queries and columns.
        evictions = cache.stats.evictions
        VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, drifted)).build(queries)
        assert cache.stats.evictions > evictions
        assert [matrix.row(query) for query in queries] == rows
        # A fresh matrix over the first layout recomputes the same rows.
        fresh = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, initial))
        before = cache.stats.verdict_cells_evaluated
        assert [fresh.row(query) for query in queries] == rows
        assert cache.stats.verdict_cells_evaluated > before

# -- apply_drift differential: 4 domains × {thread, process} -------------------


def _assert_drift_matches_cold(domain: str, executor: str) -> None:
    system = _fresh_system(domain)
    evaluator = MatchEvaluator(system, radius=1)
    initial, drifted_labeling = _domain_labelings(system)
    queries = _domain_queries(system)

    matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, initial))
    matrix.build(queries)
    drift = initial.diff(drifted_labeling)
    assert not drift.is_empty()
    drifted = matrix.apply_drift(drift.added, drift.removed, drift.flipped)

    # Cold reference: a fresh specification (empty cache) over the same data.
    cold_system = _fresh_system(domain)
    cold_evaluator = MatchEvaluator(cold_system, radius=1)
    cold = VerdictMatrix(
        cold_evaluator, BorderColumns.from_labeling(cold_evaluator, drifted_labeling)
    )
    cold.build(queries)
    for query in queries:
        assert drifted.row(query) == cold.row(query), (
            f"{domain}: drifted row diverged from cold rebuild for {query}"
        )
        assert drifted.profile(query) == cold.profile(query)

    # End-to-end: batch-ranked reports over the drifted labeling agree with a
    # service-style warm scorer using the drifted matrix.
    from repro.core.best_describe import BestDescriptionSearch

    warm_search = BestDescriptionSearch(
        system, drifted_labeling, 1, evaluator=evaluator, matrix=drifted
    )
    warm_ranking = warm_search.rank(queries)
    from repro.engine.batch import BatchExplainer

    batch = BatchExplainer(cold_system, radius=1, executor=executor, max_workers=2)
    batch_ranking = batch.rank_pool(drifted_labeling, queries)
    assert [str(entry.query) for entry in warm_ranking] == [
        str(entry.query) for entry in batch_ranking
    ]
    assert [entry.score for entry in warm_ranking] == [
        entry.score for entry in batch_ranking
    ]


@pytest.mark.parametrize("domain", sorted(DOMAIN_BUILDERS))
def test_apply_drift_matches_cold_rebuild_thread(domain):
    _assert_drift_matches_cold(domain, executor="thread")


@pytest.mark.slow
@pytest.mark.parametrize("domain", sorted(DOMAIN_BUILDERS))
def test_apply_drift_matches_cold_rebuild_process(domain):
    _assert_drift_matches_cold(domain, executor="process")


class TestApplyDriftValidation:
    @staticmethod
    def _matrix():
        system = _fresh_system("university")
        evaluator = MatchEvaluator(system, radius=1)
        initial, _ = _domain_labelings(system)
        matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, initial))
        matrix.build(_domain_queries(system))
        return matrix, initial

    def test_removing_unlabelled_tuple_rejected(self):
        matrix, _ = self._matrix()
        with pytest.raises(ExplanationError):
            matrix.apply_drift(removed=["no-such-constant"])

    def test_adding_labelled_tuple_rejected(self):
        matrix, initial = self._matrix()
        existing = sorted(initial.positives, key=repr)[0]
        with pytest.raises(ExplanationError):
            matrix.apply_drift(added=[(existing, 1)])

    def test_bad_label_rejected(self):
        matrix, _ = self._matrix()
        with pytest.raises(ExplanationError):
            matrix.apply_drift(added=[("fresh-constant", 2)])

    def test_empty_drift_preserves_rows(self):
        matrix, _ = self._matrix()
        clone = matrix.apply_drift()
        assert clone.columns.tuples == matrix.columns.tuples
        for query in _domain_queries(matrix.evaluator.system):
            assert clone.row(query) == matrix.row(query)


# -- worker-side stats merge (process sharding) --------------------------------


@pytest.mark.slow
def test_process_sharding_merges_worker_stats():
    system = _fresh_system("loans")
    initial, _ = _domain_labelings(system)
    queries = _domain_queries(system)
    from repro.engine.batch import BatchExplainer

    stats = system.specification.engine.cache.stats
    before = stats.as_dict()
    batch = BatchExplainer(system, radius=1, executor="process", max_workers=2)
    batch.rank_pool(initial, queries)
    after = stats.as_dict()
    # All row construction happened inside worker processes; without the
    # merge the parent counters would not move at all.  (On the default
    # kernel path rows come from unified-index passes, not per-pair
    # J-match memo lookups, so verdict/subquery counters are the ones
    # guaranteed to move; the per-pair counter is exercised below
    # through the oracle.)
    assert after["verdict_row_misses"] > before["verdict_row_misses"]
    assert after["subquery_misses"] > before["subquery_misses"]

    legacy_system = _fresh_system("loans")
    legacy_system.specification.engine.verdicts.enabled = False
    legacy_stats = legacy_system.specification.engine.cache.stats
    before = legacy_stats.as_dict()
    batch = BatchExplainer(legacy_system, radius=1, executor="process", max_workers=2)
    batch.rank_pool(initial, queries)
    after = legacy_stats.as_dict()
    assert after["match_misses"] > before["match_misses"]
