"""Concurrent batch scoring of candidate pools and labelings.

The sequential path scores one (labeling, candidate) pair at a time.
Batch workloads — "explain these five classifiers over the same system"
or "score this pool of 200 candidates" — have no data dependencies
between pairs, so :class:`BatchExplainer` fans them out over an
executor.  Two executor modes are available:

* ``executor="thread"`` (default) — a
  :class:`concurrent.futures.ThreadPoolExecutor` scores individual
  (labeling, candidate) pairs; all workers share the specification's
  evaluation cache in-process;
* ``executor="process"`` — a
  :class:`concurrent.futures.ProcessPoolExecutor` shards each candidate
  pool into contiguous chunks and ships (specification, database,
  labeling, chunk) payloads to worker processes.  Specifications pickle
  cleanly (locks are dropped and rebuilt; memo entries are
  content-addressed values, so warm entries stay valid in the worker),
  which is what makes the shards self-contained.  Process sharding
  requires picklable criteria/expressions — the paper's δ criteria and
  the ready-made expressions all are; lambda-backed ones (e.g.
  ``PRECISION``) are rejected with a clear error.

Correctness rests on two invariants:

* **shared state is memo-only** — worker threads only touch the
  specification's :class:`~repro.engine.cache.EvaluationCache`, whose
  entries are content-addressed and idempotent to recompute, so races
  can at worst duplicate work, never corrupt a result (worker
  *processes* share nothing at all: each shard scores against its own
  copy of the specification);
* **deterministic ordering** — results are written into slots indexed
  by (labeling position, candidate position) — shard results are
  reassembled in shard order, which is pool order — and ranked with the
  exact tie-breaking comparator of the sequential search
  (:meth:`BestDescriptionSearch._sort_key`), so batch output is
  query-for-query identical to a sequential loop regardless of thread
  or process scheduling.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..core.best_describe import BestDescriptionSearch, ScoredQuery
from ..core.border import BorderComputer
from ..core.candidates import CandidateConfig
from ..core.criteria import DEFAULT_REGISTRY, DELTA_1, DELTA_4, DELTA_5, Criterion, CriteriaRegistry
from ..core.labeling import Labeling
from ..core.refinement import RefinementConfig
from ..core.report import ExplanationReport, build_report
from ..core.scoring import ScoringExpression, describe_expression, example_3_8_expression
from ..errors import ExplanationError
from ..obdm.certain_answers import OntologyQuery
from ..obdm.system import OBDMSystem

EXECUTORS = ("thread", "process")


def _default_workers() -> int:
    return min(8, os.cpu_count() or 1)


def _shard_slices(pool_size: int, shard_count: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even (start, stop) slices covering the pool."""
    shard_count = max(1, min(shard_count, pool_size))
    base, remainder = divmod(pool_size, shard_count)
    slices: List[Tuple[int, int]] = []
    start = 0
    for index in range(shard_count):
        stop = start + base + (1 if index < remainder else 0)
        slices.append((start, stop))
        start = stop
    return slices


def _score_shard(shared: bytes, shard: bytes) -> Tuple[List[ScoredQuery], dict]:
    """Worker-process entry point: score one candidate shard in isolation.

    *shared* is one pickle of (specification, database, border computer)
    — identical for every shard, serialized once by the parent; *shard*
    carries the per-task (labeling, candidates, radius, criteria,
    expression).  The worker rebuilds the search exactly as the
    sequential path would and returns the scores in candidate order.
    Bitset-backed profiles reduce to plain
    :class:`~repro.core.matching.MatchProfile` objects on the way back,
    so the parent sees the same values either way.

    Alongside the scores, the worker returns the *delta* of its cache
    counters over the shard (the rebuilt cache starts from the parent's
    pickled counts, so the raw values would double-count).  The parent
    merges the deltas into its own stats, keeping hit/miss/eviction
    numbers truthful under sharding instead of silently dropping every
    worker-side count with the discarded worker caches.
    """
    specification, database, border_computer = pickle.loads(shared)
    labeling, candidates, radius, criteria, expression = pickle.loads(shard)
    system = OBDMSystem(specification, database, name="shard")
    stats = specification.engine.cache.stats
    baseline = stats.as_dict()
    search = BestDescriptionSearch(
        system, labeling, radius, criteria, expression, DEFAULT_REGISTRY, border_computer
    )
    search.scorer.prepare(candidates)
    scores = [search.scorer.score(query) for query in candidates]
    return scores, stats.delta_since(baseline)


class BatchExplainer:
    """Scores many (labeling, candidate) pairs concurrently over one Σ."""

    def __init__(
        self,
        system: OBDMSystem,
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        border_computer: Optional[BorderComputer] = None,
        max_workers: Optional[int] = None,
        executor: str = "thread",
    ):
        if executor not in EXECUTORS:
            raise ExplanationError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.system = system
        self.radius = radius
        self.criteria = criteria
        self.expression = expression or example_3_8_expression()
        self.registry = registry
        self.border_computer = border_computer or BorderComputer(system.database)
        self.max_workers = max_workers if max_workers is not None else _default_workers()
        self.executor = executor

    # -- building blocks --------------------------------------------------

    def search_for(self, labeling: Labeling) -> BestDescriptionSearch:
        """A sequential search bound to one labeling, sharing our borders."""
        return BestDescriptionSearch(
            self.system,
            labeling,
            self.radius,
            self.criteria,
            self.expression,
            self.registry,
            self.border_computer,
        )

    def _score_pools(
        self,
        searches: Sequence[BestDescriptionSearch],
        pools: Sequence[Sequence[OntologyQuery]],
    ) -> List[List[ScoredQuery]]:
        """Score every (labeling, candidate) pair, preserving pool order."""
        if self.executor == "process":
            return self._score_pools_sharded(searches, pools)
        self._prepare_pools(searches, pools)
        results: List[List[Optional[ScoredQuery]]] = [[None] * len(pool) for pool in pools]
        tasks = [
            (labeling_index, candidate_index, query)
            for labeling_index, pool in enumerate(pools)
            for candidate_index, query in enumerate(pool)
        ]
        if self.max_workers <= 1 or len(tasks) <= 1:
            for labeling_index, candidate_index, query in tasks:
                results[labeling_index][candidate_index] = searches[labeling_index].scorer.score(query)
            return results  # type: ignore[return-value]
        with ThreadPoolExecutor(max_workers=self.max_workers) as executor:
            futures = {
                executor.submit(searches[labeling_index].scorer.score, query): (
                    labeling_index,
                    candidate_index,
                )
                for labeling_index, candidate_index, query in tasks
            }
            for future in as_completed(futures):
                labeling_index, candidate_index = futures[future]
                results[labeling_index][candidate_index] = future.result()
        return results  # type: ignore[return-value]

    def _prepare_pools(
        self,
        searches: Sequence[BestDescriptionSearch],
        pools: Sequence[Sequence[OntologyQuery]],
    ) -> None:
        """Build every labeling's verdict matrix up front (thread path).

        Worker threads then only do criteria arithmetic, instead of
        racing on the lazy matrix init and duplicating the one-pass row
        build.  All searches share one system, so the whole batch goes
        through :meth:`VerdictMatrix.build_batch` — one bit-sliced
        kernel dispatch over the union of the labelings' borders.  A
        no-op per scorer on the per-pair oracle path.
        """
        matrices = []
        matrix_pools: List[Sequence[OntologyQuery]] = []
        for search, pool in zip(searches, pools):
            if search.scorer.uses_verdict_matrix:
                matrices.append(search.scorer.verdict_matrix())
                matrix_pools.append(pool)
        if matrices:
            from .verdicts import VerdictMatrix

            VerdictMatrix.build_batch(matrices, matrix_pools)

    def _pickle_for_sharding(self, value, what: str) -> bytes:
        try:
            return pickle.dumps(value)
        except Exception as error:
            raise ExplanationError(
                f"process-sharded scoring needs picklable {what}; the paper's "
                "δ criteria, the ready-made expressions and every built-in "
                f"specification qualify, but this configuration does not: {error}"
            ) from error

    def _score_pools_sharded(
        self,
        searches: Sequence[BestDescriptionSearch],
        pools: Sequence[Sequence[OntologyQuery]],
    ) -> List[List[ScoredQuery]]:
        """Shard each pool across worker processes; reassemble in order."""
        results: List[List[Optional[ScoredQuery]]] = [[None] * len(pool) for pool in pools]
        # The system state is identical for every shard: serialize it once,
        # not once per (labeling, shard) task.  The border computer rides
        # along so workers honour a custom computer exactly like the
        # sequential and thread paths do (and inherit its warm borders).
        shared = self._pickle_for_sharding(
            (self.system.specification, self.system.database, self.border_computer),
            "specifications",
        )
        criteria = self.registry.resolve(self.criteria)
        tasks: List[Tuple[int, int, bytes]] = []
        for labeling_index, (search, pool) in enumerate(zip(searches, pools)):
            for start, stop in _shard_slices(len(pool), self.max_workers):
                tasks.append(
                    (
                        labeling_index,
                        start,
                        self._pickle_for_sharding(
                            (
                                search.labeling,
                                pool[start:stop],
                                self.radius,
                                criteria,
                                self.expression,
                            ),
                            "criteria and expressions",
                        ),
                    )
                )
        if not tasks:
            return results  # type: ignore[return-value]
        parent_stats = self.system.specification.engine.cache.stats
        if self.max_workers <= 1:
            # One worker would serialize anyway; score in-process (the
            # payloads are still built so pickling problems never hide).
            for labeling_index, start, payload in tasks:
                scored, stats_delta = _score_shard(shared, payload)
                parent_stats.merge(stats_delta)
                results[labeling_index][start : start + len(scored)] = scored
            return results  # type: ignore[return-value]
        with ProcessPoolExecutor(max_workers=self.max_workers) as executor:
            futures = {
                executor.submit(_score_shard, shared, payload): (labeling_index, start)
                for labeling_index, start, payload in tasks
            }
            for future in as_completed(futures):
                labeling_index, start = futures[future]
                scored, stats_delta = future.result()
                parent_stats.merge(stats_delta)
                results[labeling_index][start : start + len(scored)] = scored
        return results  # type: ignore[return-value]

    # -- scoring API ------------------------------------------------------

    def score_pool(self, labeling: Labeling, candidates: Sequence[OntologyQuery]) -> List[ScoredQuery]:
        """Scores in candidate order (no ranking applied)."""
        return self._score_pools([self.search_for(labeling)], [list(candidates)])[0]

    def rank_pool(self, labeling: Labeling, candidates: Sequence[OntologyQuery]) -> List[ScoredQuery]:
        """Concurrent equivalent of :meth:`BestDescriptionSearch.rank`."""
        scored = self.score_pool(labeling, candidates)
        return sorted(scored, key=BestDescriptionSearch._sort_key)

    # -- the batch entry point --------------------------------------------

    def explain_batch(
        self,
        labelings: Sequence[Labeling],
        candidates: Optional[Sequence[OntologyQuery]] = None,
        strategy: str = "enumerate",
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        top_k: Optional[int] = 10,
    ) -> List[ExplanationReport]:
        """One report per labeling, identical to sequential ``explain``.

        When *candidates* is given the same pool is scored for every
        labeling; otherwise each labeling builds its own pool with the
        chosen strategy, exactly as the sequential search would.
        """
        labelings = list(labelings)
        searches = [self.search_for(labeling) for labeling in labelings]
        pools: List[List[OntologyQuery]] = []
        explicit_counts: List[Optional[int]] = []
        for search in searches:
            if candidates is not None:
                pool = list(candidates)
                explicit_counts.append(len(pool))
            else:
                pool = search.candidate_pool(strategy, candidate_config, refinement_config)
                explicit_counts.append(None)
            pools.append(pool)

        scored_pools = self._score_pools(searches, pools)

        reports: List[ExplanationReport] = []
        for labeling, search, scored, explicit_count in zip(
            labelings, searches, scored_pools, explicit_counts
        ):
            ranking = sorted(scored, key=BestDescriptionSearch._sort_key)
            candidate_count = explicit_count if explicit_count is not None else len(ranking)
            criteria_keys = [criterion.key for criterion in search.scorer.criteria]
            reports.append(
                build_report(
                    labeling,
                    self.radius,
                    criteria_keys,
                    describe_expression(self.expression),
                    ranking,
                    candidate_count,
                    top_k=top_k,
                )
            )
        return reports
