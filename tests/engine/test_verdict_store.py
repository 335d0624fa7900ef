"""The verdict column store: J-match verdicts keyed by border, not by layout.

A verdict (Definition 3.4) depends only on the (query, border) pair, so
the specification's :class:`~repro.engine.cache.VerdictStore` keeps one
bounded query registry and, per border, the bitsets of the queries
evaluated on it and of those that matched.  Every
:class:`~repro.engine.verdicts.VerdictMatrix` fill gathers the known
cells and sends only the missing ones through one kernel dispatch.  The
suite pins:

* **exact work counts** (``CacheStats.verdict_cells_evaluated`` /
  ``verdict_cells_reused`` / ``batch_dispatches``, never wall clock) for
  a cold layout, a layout sharing borders, a warm repeat, a drift onto
  an evaluated border, a database delta across sessions and the
  batch-vs-sequential workload of the retired experiment E13;
* **eviction** under ``CacheLimits(verdict_queries=…, border_aboxes=…)``:
  counted exactly, an evicted query's bits cleared before its id is
  reused, and a write landing on a key's current id even when its old
  id changed hands while the kernel ran;
* **pickling** (the process executor ships the store) and an 8-thread
  race under tight caps whose renders equal the oracle and whose
  evaluated + reused cells equal the cells requested.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.explainer import OntologyExplainer
from repro.core.labeling import POSITIVE, Labeling
from repro.core.matching import MatchEvaluator
from repro.engine.batch_kernel import MultiLabelingBatchKernel
from repro.engine.cache import CacheLimits, CacheStats, VerdictStore
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.experiments.scalability import build_loan_pool
from repro.obdm.system import OBDMSystem
from repro.ontologies.loans import build_loan_specification
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import query_key
from repro.service import ExplanationService
from repro.workloads.probes import (
    build_delta_stream,
    build_probe_system,
    oracle_row,
    probe_labeling,
    probe_labelings,
    probe_pool,
)

pytestmark = pytest.mark.verdicts

WORK = ("batch_dispatches", "verdict_cells_evaluated", "verdict_cells_reused")


def _cqs(system):
    return [query for query in probe_pool(system) if isinstance(query, ConjunctiveQuery)]


def _spent(stats, before, names=WORK):
    spent = stats.delta_since(before)
    return tuple(spent[name] for name in names)


def _matrix(evaluator, labeling) -> VerdictMatrix:
    return VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, labeling))


def _assert_oracle_rows(domain, matrix, pool):
    """Each row equals the per-pair oracle's over the matrix's database content."""
    specification = build_probe_system(domain, verdicts=False).specification
    database = matrix.evaluator.system.database.copy()
    oracle = MatchEvaluator(OBDMSystem(specification, database, name=f"{domain}_oracle"), 1)
    for query in pool:
        assert matrix.row(query) == oracle_row(oracle, matrix.columns, query), str(query)


# -- exact work counts -----------------------------------------------------------


class TestWorkCounts:
    @pytest.fixture()
    def loans(self):
        system = build_probe_system("loans")
        return system, MatchEvaluator(system, 1), _cqs(system), system.specification.engine.cache.stats

    def test_cold_layout_evaluates_every_cell_in_one_dispatch(self, loans):
        system, evaluator, pool, stats = loans
        matrix = _matrix(evaluator, probe_labeling(system))
        before = stats.as_dict()
        matrix.build(pool)
        width = matrix.columns.width
        assert _spent(stats, before) == (1, len(pool) * width, 0)
        assert _spent(stats, before, ("verdict_row_misses", "verdict_row_hits")) == (len(pool), 0)
        _assert_oracle_rows("loans", matrix, pool)

    def test_shared_borders_are_gathered_not_reevaluated(self, loans):
        system, evaluator, pool, stats = loans
        first, second = probe_labelings(system, count=2)
        _matrix(evaluator, first).build(pool)
        matrix = _matrix(evaluator, second)
        first_borders = BorderColumns.from_labeling(evaluator, first).borders
        shared = len(set(matrix.columns.borders) & set(first_borders))
        assert 0 < shared < matrix.columns.width
        before = stats.as_dict()
        matrix.build(pool)
        fresh = matrix.columns.width - shared
        assert _spent(stats, before) == (1, len(pool) * fresh, len(pool) * shared)
        _assert_oracle_rows("loans", matrix, pool)

    def test_layout_over_known_borders_makes_no_dispatch(self, loans):
        system, evaluator, pool, stats = loans
        labeling = probe_labeling(system)
        _matrix(evaluator, labeling).build(pool)
        # The inverted labeling has the same borders in other columns.
        matrix = _matrix(evaluator, labeling.inverted())
        before = stats.as_dict()
        matrix.build(pool)
        assert _spent(stats, before) == (0, 0, len(pool) * matrix.columns.width)
        assert _spent(stats, before, ("verdict_row_misses", "verdict_row_hits")) == (0, len(pool))
        _assert_oracle_rows("loans", matrix, pool)

    def test_warm_repeat_touches_nothing(self, loans):
        system, evaluator, pool, stats = loans
        matrix = _matrix(evaluator, probe_labeling(system))
        matrix.build(pool)
        before = stats.as_dict()
        matrix.build(pool)
        assert _spent(stats, before) == (0, 0, 0)

    def test_drift_onto_an_evaluated_border_makes_no_dispatch(self, loans):
        system, evaluator, pool, stats = loans
        labeling = probe_labeling(system)
        matrix = _matrix(evaluator, labeling)
        matrix.build(pool)
        fresh = sorted(system.domain(), key=repr)[6]
        _matrix(evaluator, Labeling(positives=[fresh], negatives=[], name="other")).build(pool)
        before = stats.as_dict()
        drifted = matrix.apply_drift(added=[(fresh, POSITIVE)])
        assert _spent(stats, before) == (0, 0, len(pool) * drifted.columns.width)
        _assert_oracle_rows("loans", drifted, pool)

    def test_drift_onto_a_new_border_evaluates_only_that_column(self, loans):
        system, evaluator, pool, stats = loans
        matrix = _matrix(evaluator, probe_labeling(system))
        matrix.build(pool)
        fresh = sorted(system.domain(), key=repr)[6]
        before = stats.as_dict()
        drifted = matrix.apply_drift(added=[(fresh, POSITIVE)])
        assert _spent(stats, before) == (1, len(pool), len(pool) * matrix.columns.width)
        _assert_oracle_rows("loans", drifted, pool)

    @pytest.mark.parametrize("count", [1, 3])
    def test_delta_evaluates_each_changed_border_once(self, count):
        system = build_probe_system("loans")
        pool = _cqs(system)
        service = ExplanationService(system, radius=1)
        for labeling in probe_labelings(system, count=count):
            service.explain(labeling, candidates=pool, top_k=None)
        sessions = [session for _key, session in service._sessions.items()]
        old = [session.matrix for session in sessions]
        anchor = sorted(system.domain(), key=repr)[3]
        [delta] = build_delta_stream(
            system.database, Labeling(positives=[anchor], negatives=[]), steps=1
        )
        before = service.cache_stats.as_dict()
        assert service.apply_delta(delta)["sessions_updated"] == count
        changed, held = set(), set()
        for session, previous in zip(sessions, old):
            for was, now in zip(previous.columns.borders, session.matrix.columns.borders):
                held.add(now)
                if was != now:
                    changed.add(now)
        assert changed
        n = len(pool)
        spent = _spent(service.cache_stats, before)
        assert spent == (1, n * len(changed), n * (len(held) - len(changed)))
        for session in sessions:
            _assert_oracle_rows("loans", session.matrix, pool)


def test_e13_batch_and_sequential_builds_evaluate_each_cell_once():
    """Six overlapping loan labelings (the retired E13's workload): one
    dispatch, |pool| × |distinct borders| cells either way."""
    workload = build_loan_pool(48, 36, 14, labelings=6)
    pool, layouts = list(workload.pool), workload.labelings

    def build(batch: bool):
        system = OBDMSystem(build_loan_specification(), workload.database, name="e13")
        evaluator = MatchEvaluator(system, 1)
        matrices = [_matrix(evaluator, labeling) for labeling in layouts]
        stats = system.specification.engine.cache.stats
        before = stats.as_dict()
        if batch:
            VerdictMatrix.build_batch(matrices, [pool] * len(matrices))
        else:
            for matrix in matrices:
                matrix.build(pool)
        distinct = {border for matrix in matrices for border in matrix.columns.borders}
        rows = [[matrix.row(query) for query in pool] for matrix in matrices]
        return _spent(stats, before), len(distinct), rows

    (dispatches, evaluated, _), distinct, batch_rows = build(batch=True)
    assert dispatches == 1
    assert evaluated == len(pool) * distinct
    (dispatches, evaluated, reused), distinct, sequential_rows = build(batch=False)
    assert dispatches == len(layouts)
    assert evaluated == len(pool) * distinct  # no cell evaluated twice
    assert evaluated + reused == len(pool) * sum(len(labeling.tuples()) for labeling in layouts)
    assert batch_rows == sequential_rows


# -- the store itself ------------------------------------------------------------


def _cells(store, borders, keys):
    evaluated, matched = store.gather(borders, keys)
    return evaluated.tolist(), matched.tolist()


class TestStoreBounds:
    def test_evicted_query_bits_are_cleared_before_its_id_is_reused(self):
        store = VerdictStore(capacity=2)
        borders = ["b1", "b2"]
        store.write(borders, [("q1", "Q1")], np.array([[1, 1]]), np.array([[1, 0]]))
        assert _cells(store, borders, ["q1"]) == ([[1, 1]], [[1, 0]])
        store.write(borders, [("q2", "Q2"), ("q3", "Q3")], np.zeros((2, 2)), np.zeros((2, 2)))
        assert "q1" not in store._ids  # evicted: q3 pushed the registry over 2
        store.write(borders, [("q4", "Q4")], np.zeros((1, 2)), np.zeros((1, 2)))
        reused = store._ids["q4"]
        assert reused == 0, "q4 should take q1's freed id"
        assert _cells(store, borders, ["q4", "q1"]) == ([[0, 0], [0, 0]], [[0, 0], [0, 0]])

    def test_evictions_are_counted_exactly(self):
        stats = CacheStats()
        store = VerdictStore(capacity=2, column_capacity=2, stats=stats)
        queries = [(f"q{i}", i) for i in range(3)]
        store.write(["b1", "b2", "b3"], queries, np.ones((3, 3)), np.ones((3, 3)))
        assert stats.evictions == 2  # one query, one column
        assert store.sizes() == {"verdict_queries": 2, "verdict_columns": 2, "verdict_rows": 2}
        store.set_limits(1, 1)
        assert stats.evictions == 4
        assert store.sizes() == {"verdict_queries": 1, "verdict_columns": 1, "verdict_rows": 1}

    def test_cache_limits_bound_the_store(self):
        system = build_probe_system("loans")
        cache = system.specification.engine.cache
        cache.configure_limits(CacheLimits(verdict_queries=3, border_aboxes=2))
        evaluator = MatchEvaluator(system, 1)
        pool = _cqs(system)
        for labeling in probe_labelings(system, count=3):
            matrix = _matrix(evaluator, labeling)
            matrix.build(pool)
            _assert_oracle_rows("loans", matrix, pool)
        report = cache.size_report()
        assert report["verdict_queries"] <= 3 and report["verdict_columns"] <= 2
        assert cache.stats.evictions > 0

    def test_a_write_lands_on_the_current_id_after_the_kernel_run(self, monkeypatch):
        # Between gather and write, the unlocked kernel run is raced by
        # interlopers that evict the pool's queries and take over their
        # ids; the write must follow the keys, never the gathered ids.
        system = build_probe_system("loans")
        pool = _cqs(system)
        cache = system.specification.engine.cache
        cache.configure_limits(CacheLimits(verdict_queries=len(pool)))
        store = cache.verdict_store()
        evaluator = MatchEvaluator(system, 1)
        first, second = probe_labelings(system, count=2)
        _matrix(evaluator, first).build(pool)
        matrix = _matrix(evaluator, second)
        borders = list(matrix.columns.borders)
        gathered_ids = {store._ids[query_key(query)] for query in pool}
        fillers = [(("filler", i), f"filler{i}") for i in range(len(pool))]
        ghosts = [(("ghost", i), f"ghost{i}") for i in range(len(pool))]
        original = MultiLabelingBatchKernel.rows_for

        def raced(self, pools):
            result = original(self, pools)
            ones = np.ones((len(pool), len(borders)))
            store.write(borders, fillers, ones, ones)  # evicts the pool's queries
            store.write(borders, ghosts, ones, ones)  # takes over their ids
            assert {store._ids[key] for key, _ in ghosts} == gathered_ids
            return result

        monkeypatch.setattr(MultiLabelingBatchKernel, "rows_for", raced)
        matrix.build(pool)
        monkeypatch.undo()
        _assert_oracle_rows("loans", matrix, pool)
        for key, _ in ghosts:
            if key in store._ids:  # a surviving ghost keeps exactly its own cells
                assert _cells(store, borders, [key]) == ([[1] * len(borders)],) * 2
        evaluated, matched = store.gather(borders, [query_key(query) for query in pool])
        oracle = MatchEvaluator(build_probe_system("loans", verdicts=False), 1)
        for position, query in enumerate(pool):
            expected = oracle_row(oracle, matrix.columns, query)
            for bit in range(len(borders)):
                if evaluated[position, bit]:
                    assert matched[position, bit] == (expected >> bit & 1), str(query)


class TestPickling:
    def test_store_round_trip_keeps_cells_and_a_working_lock(self):
        store = VerdictStore(capacity=4, column_capacity=4)
        store.write(["b"], [("q", "Q")], np.array([[1]]), np.array([[1]]))
        clone = pickle.loads(pickle.dumps(store))
        assert _cells(clone, ["b"], ["q"]) == ([[1]], [[1]])
        clone.write(["c"], [("r", "R")], np.array([[1]]), np.array([[0]]))
        assert clone.capacity == 4 and clone.column_capacity == 4

    @pytest.mark.slow
    def test_process_executor_ships_the_warm_store(self):
        system = build_probe_system("loans")
        pool = probe_pool(system)
        labelings = probe_labelings(system, count=2)
        explainer = OntologyExplainer(system)
        explainer.explain(labelings[0], candidates=pool)  # warm the store
        reports = explainer.explain_batch(
            labelings, candidates=pool, executor="process", max_workers=2, top_k=None
        )
        oracle = OntologyExplainer(build_probe_system("loans", verdicts=False))
        for labeling, report in zip(labelings, reports):
            expected = oracle.explain(labeling, candidates=pool, top_k=None)
            assert report.render(top_k=None) == expected.render(top_k=None)


# -- concurrency -------------------------------------------------------------------


def test_concurrent_fills_under_tight_caps_equal_the_oracle():
    """8 threads, tight caps: oracle renders, every requested cell counted once."""
    domain = "loans"
    oracle = OntologyExplainer(build_probe_system(domain, verdicts=False))
    system = build_probe_system(domain)
    system.specification.engine.cache.configure_limits(
        CacheLimits(verdict_queries=3, border_aboxes=4)
    )
    pool = probe_pool(system)
    labelings = probe_labelings(system, count=4)
    labelings += [labeling.inverted() for labeling in labelings]
    expected = [
        oracle.explain(labeling, candidates=pool, top_k=None).render(top_k=None)
        for labeling in labelings
    ]
    cells_per_request = [len(pool) * len(labeling.tuples()) for labeling in labelings]
    stats = system.specification.engine.cache.stats
    before = stats.as_dict()
    served = [0] * len(labelings)
    errors = []
    barrier = threading.Barrier(len(labelings))
    deadline = time.monotonic() + 3

    def request(position):
        try:
            explainer = OntologyExplainer(system)
            barrier.wait(30)
            while served[position] < 2 or time.monotonic() < deadline:
                report = explainer.explain(labelings[position], candidates=pool, top_k=None)
                assert report.render(top_k=None) == expected[position], labelings[position].name
                served[position] += 1
                if served[position] >= 20:
                    break
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request, args=(i,)) for i in range(len(labelings))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    evaluated, reused = _spent(stats, before, WORK[1:])
    assert evaluated + reused == sum(
        count * cells for count, cells in zip(served, cells_per_request)
    )
    assert stats.delta_since(before)["evictions"] > 0
