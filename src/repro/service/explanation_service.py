"""The long-lived explanation service: warm cache, bounded memory, drift.

Lifecycle and invalidation model
--------------------------------

A service instance owns exactly one :class:`~repro.obdm.system.OBDMSystem`
and, through its specification, one shared
:class:`~repro.engine.cache.EvaluationCache`.  Every request flows
through the same warm substrate, and three mechanisms keep that sound
over an unbounded request stream:

1. **Bounded memo layers.**  The cache's expensive layers (chase
   saturations, retrieved border ABoxes, J-match verdicts, the verdict
   store's query registry and border columns) are LRU-bounded via
   :class:`~repro.engine.cache.CacheLimits`; evictions are counted in
   ``cache.stats.evictions`` and occupancy is visible through
   :meth:`ExplanationService.size_report`.  Because every key is
   content-addressed, eviction can only cost recomputation, never
   correctness.

2. **Warm sessions over a shared verdict store.**  Per (labeling
   signature, radius) the service keeps a *session*: the labeling and
   its built :class:`~repro.engine.verdicts.VerdictMatrix`.  Sessions
   live in their own LRU ring (``max_sessions``).  A matrix copies the
   rows it gathers from the cache's
   :class:`~repro.engine.cache.VerdictStore`, so a session is always
   servable: evicting store entries only means a later labeling over
   the same borders evaluates those cells again.  Every new matrix
   gathers the (query, border) cells earlier labelings evaluated, so a
   new labeling pays only for the cells nobody has evaluated.

3. **Incremental verdict maintenance.**  When a request carries a
   labeling with the *same name* as a warm session but different
   content — the classic production situation of a classifier whose
   predictions drift between retrainings — the service computes the
   :class:`~repro.core.labeling.LabelingDrift` and applies it to the
   warm matrix (:meth:`VerdictMatrix.apply_drift`): the drifted layout
   is filled for the predecessor's queries, surviving tuples' cells are
   gathered from the store, and only borders the store lacks cost
   J-match evaluations.  The drifted matrix is byte-identical to a cold
   rebuild (differential-pinned in
   ``tests/engine/test_cache_lifecycle.py``).

4. **Database drift.**  :meth:`ExplanationService.apply_delta` takes a
   fact-level :class:`~repro.obdm.database.DatabaseDelta`, mutates the
   source database in place and propagates the change incrementally:
   the border computer reports exactly the cached borders the delta
   changes (:meth:`~repro.core.border.BorderComputer.apply_delta`), the shared
   cache drops exactly the entries built over those borders
   (:meth:`~repro.engine.cache.EvaluationCache.invalidate_borders`) and
   the matrices of all sessions re-evaluate only the columns whose
   border content changed, in one batch dispatch per radius
   (:meth:`~repro.engine.verdicts.VerdictMatrix.apply_database_delta`).
   Untouched sessions, borders and memo entries stay warm.

Persistence: :meth:`ExplanationService.save` snapshots the cache's
content-addressed memo state to disk and
:meth:`ExplanationService.load` merges it back, so a restarted service
answers its first requests at warm-cache speed.  Live entries win over
persisted ones and merged entries respect the configured limits.
Snapshots are stamped with the specification fingerprint *and* the
database content fingerprint, so a service whose database has drifted
since the snapshot refuses to load it (stale border/verdict memos would
otherwise silently survive the drift).

Typical use::

    from repro.service import ExplanationService
    from repro.ontologies.university import build_university_system

    service = ExplanationService(build_university_system(), radius=1)
    report = service.explain(labeling)            # cold: builds the matrix
    report = service.explain(labeling)            # warm: popcounts only
    report = service.explain(drifted_labeling)    # drift: evaluates new borders only
    service.save("/tmp/cache.snapshot")           # survive a restart
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.best_describe import BestDescriptionSearch, check_limit
from ..core.border import BorderComputer
from ..core.candidates import CandidateConfig
from ..core.criteria import DEFAULT_REGISTRY, DELTA_1, DELTA_4, DELTA_5, Criterion, CriteriaRegistry
from ..core.explainer import execute_search
from ..core.labeling import Labeling, LabelingDrift
from ..core.matching import MatchEvaluator
from ..core.refinement import RefinementConfig
from ..core.report import ExplanationReport
from ..core.scoring import ScoringExpression, example_3_8_expression
from ..errors import ExplanationError
from ..queries.parser import parse_query
from ..obdm.certain_answers import OntologyQuery
from ..obdm.database import DatabaseDelta
from ..obdm.system import OBDMSystem
from ..engine.cache import CacheLimits, CacheStats, LRUStore
from ..engine.verdicts import BorderColumns, VerdictMatrix


class ServiceStats(CacheStats):
    """Request-path counters: how each request's matrix was obtained.

    Inherits the locked-counter machinery (``count``/``as_dict``/
    ``merge``/``delta_since``) from
    :class:`~repro.engine.cache.CacheStats`; only the counter set
    differs.  The ``delta_*`` counters account the database-drift path:
    deltas applied, borders they touched, and sessions whose matrix was
    incrementally updated.
    """

    _COUNTERS = (
        "requests",
        "warm_hits",
        "drift_updates",
        "cold_builds",
        "database_deltas",
        "delta_borders_touched",
        "delta_sessions_updated",
    )


class _Session:
    """One warm (labeling, radius) serving state: the labeling + its matrix.

    ``matrix`` is ``None`` when the bitset path is disabled
    (``specification.engine.verdicts.enabled = False``); the session then
    only pins the labeling identity, and warmth comes from the shared
    memo layers alone.
    """

    __slots__ = ("labeling", "radius", "matrix")

    def __init__(self, labeling: Labeling, radius: int, matrix):
        self.labeling = labeling
        self.radius = radius
        self.matrix = matrix


class ExplanationService:
    """Serves repeated ``explain`` requests against one warm OBDM system.

    Parameters
    ----------
    system:
        The long-lived ``Σ = <J, D>``.  The service shares its
        specification's evaluation cache with every other consumer of
        the same specification.
    radius:
        Default border radius for requests that do not override it.
    criteria / expression / registry:
        Default (Δ, F, Z) configuration; each request may override them
        without invalidating warm state (verdicts are criteria-free).
    cache_limits:
        Optional :class:`~repro.engine.cache.CacheLimits` applied to the
        shared cache — the memory bound of the resident service.
    max_sessions:
        How many warm (labeling, radius) sessions to keep; the least
        recently served session is dropped first (its memo entries stay
        in the shared cache until *their* layers evict them).
    """

    def __init__(
        self,
        system: OBDMSystem,
        radius: int = 1,
        criteria: Sequence[Union[str, Criterion]] = (DELTA_1, DELTA_4, DELTA_5),
        expression: Optional[ScoringExpression] = None,
        registry: CriteriaRegistry = DEFAULT_REGISTRY,
        cache_limits: Optional[CacheLimits] = None,
        max_sessions: int = 32,
    ):
        if max_sessions < 1:
            raise ExplanationError(f"max_sessions must be >= 1, got {max_sessions}")
        self.system = system
        self.radius = radius
        self.criteria = criteria
        self.expression = expression or example_3_8_expression()
        self.registry = registry
        self.stats = ServiceStats()
        # The border cache shares the border-ABox layer's bound: the two
        # grow in lockstep (one retrieved ABox per distinct border), and a
        # long-lived computer must not pin every border ever served.  The
        # evaluators' ABox lookups delegate to the shared (LRU-bounded)
        # cache layer, so they add no unbounded state of their own.
        self._border_computer = BorderComputer(
            system.database,
            capacity=cache_limits.border_aboxes if cache_limits is not None else None,
            stats=self.cache.stats,
        )
        self._evaluators: Dict[int, MatchEvaluator] = {}
        # Evaluator creation is a check-then-set on a plain dict; under
        # concurrent explain() callers (the gateway's normal traffic
        # shape) two threads could each build an evaluator for the same
        # radius and race the insert.  A dedicated lock keeps one
        # evaluator per radius without re-entering the session guard
        # (which _resolve_session holds while calling evaluator()).
        self._evaluator_guard = threading.Lock()
        # Session resolution is a non-atomic lookup → diff → drift → put
        # sequence; one lock makes it atomic so concurrent requests can
        # never race two drifts from the same predecessor or interleave
        # the name-index updates.  Scoring itself runs outside the lock
        # (the memo layers are individually locked and idempotent).
        self._session_guard = threading.Lock()
        self._sessions = LRUStore(capacity=max_sessions)
        # (labeling name, radius) → session key of the labeling last served
        # under that name: the hook that turns a renamed-content request
        # into an incremental drift update instead of a cold rebuild.
        # Bounded like the session ring — only names whose session may
        # still be resident are worth remembering, so the same capacity
        # keeps the index from growing with every distinct name ever seen.
        self._name_index = LRUStore(capacity=max_sessions)
        if cache_limits is not None:
            self.cache.configure_limits(cache_limits)

    # -- shared substrate --------------------------------------------------

    @property
    def cache(self):
        """The specification's shared evaluation cache."""
        return self.system.specification.engine.cache

    @property
    def cache_stats(self):
        return self.cache.stats

    @property
    def backend_name(self) -> str:
        """The storage backend kind the source database lives on.

        ``"memory"`` for the seed's dict-indexed store, ``"sqlite"``
        for the out-of-core SQL-pushdown backend
        (:mod:`repro.obdm.backend`).  Serving is backend-oblivious —
        borders arrive through indexed point lookups and the retrieved
        ABox through streaming mapping application either way — but
        operators reading a :meth:`size_report` want to know whether
        fact storage is on or off the Python heap.
        """
        return self.system.database.backend_name

    def size_report(self) -> Dict[str, object]:
        """Occupancy of the cache layers plus the service's own stores.

        The cache layers include the derivation table behind border
        retrieval (``derivation_sources`` covered source facts and
        ``derivations`` tabled).  ``borders`` is the service's
        border-computer cache — bounded by
        the same ``border_aboxes`` limit and evicting into the same
        ``evictions`` counter, so operators can reconcile every eviction
        against a reported layer.  ``backend`` names the database's
        storage backend (the one non-count entry).
        """
        report = self.cache.size_report()
        report["sessions"] = len(self._sessions)
        report["borders"] = len(self._border_computer._cache)
        report["backend"] = self.backend_name
        return report

    def evaluator(self, radius: Optional[int] = None) -> MatchEvaluator:
        """The shared J-match evaluator of one radius (created once).

        Thread-safe: concurrent callers of the same radius always
        receive the *same* instance (double-checked under
        ``_evaluator_guard``), so warm sessions never end up split
        across racing evaluator identities.
        """
        radius = self.radius if radius is None else radius
        evaluator = self._evaluators.get(radius)
        if evaluator is None:
            with self._evaluator_guard:
                evaluator = self._evaluators.get(radius)
                if evaluator is None:
                    evaluator = MatchEvaluator(self.system, radius, self._border_computer)
                    self._evaluators[radius] = evaluator
        return evaluator

    # -- persistence -------------------------------------------------------

    def _snapshot_fingerprint(self) -> str:
        """Content hash the memo values depend on: specification + data.

        The engine's fingerprint covers the ontology and mapping; the
        database fingerprint covers the facts every border, saturation
        and verdict was computed over.  Stamping both keeps snapshots
        honest under database drift: a delta applied between save and
        load changes the database fingerprint, so the stale snapshot is
        refused instead of silently serving pre-delta verdicts.
        """
        engine = self.system.specification.engine
        return f"{engine.cache_fingerprint()}:{self.system.database.fingerprint()}"

    def content_fingerprint(self) -> str:
        """Public identity of this service's servable content.

        The hash snapshots are stamped with (specification + database
        fingerprints); the gateway's
        :class:`~repro.gateway.registry.ServiceRegistry` keys live
        instances by it, and snapshot shipping advertises it so a
        receiving replica can check compatibility before loading.
        """
        return self._snapshot_fingerprint()

    def save(self, path) -> Dict[str, int]:
        """Snapshot the shared cache so a restarted service starts warm.

        The snapshot is stamped with the specification's content
        fingerprint and the database's fact-level fingerprint, so
        :meth:`load` on a service over a different (or since-updated)
        specification *or database* refuses it instead of silently
        serving stale memo values.
        """
        return self.cache.save(path, fingerprint=self._snapshot_fingerprint())

    def load(self, path) -> Dict[str, int]:
        """Merge a saved snapshot into the shared cache (live entries win).

        Raises ``ValueError`` for snapshots saved against a different
        specification or a database whose content has drifted since the
        snapshot was taken.
        """
        return self.cache.load(path, fingerprint=self._snapshot_fingerprint())

    # -- database drift ----------------------------------------------------

    def apply_delta(self, delta: DatabaseDelta) -> Dict[str, int]:
        """Apply a fact-level database delta and propagate it incrementally.

        The source database is mutated in place
        (:meth:`~repro.obdm.database.SourceDatabase.apply_delta`; a delta
        that fails validation raises before any state changes), then the
        drift propagates through every layer that memoizes data-derived
        state:

        1. the system's retrieved-ABox snapshot is invalidated;
        2. the border computer evicts exactly the cached borders whose
           layers the delta changes, found from the delta's own facts
           (:meth:`~repro.core.border.BorderComputer.apply_delta`), and
           reports them; then each distinct ``(tuple, radius)`` column of
           the live sessions is resolved once over the new content, into
           one map (:meth:`~repro.engine.verdicts.VerdictMatrix.current_borders`);
        3. the shared cache drops the entries built over the touched
           borders (border ABoxes, their saturations, J-match verdicts,
           verdict store columns, tabled subquery states and
           candidate-table entries), except over borders in the map;
        4. all sessions' matrices go to
           :meth:`~repro.engine.verdicts.VerdictMatrix.apply_database_delta`
           together, with the map: one batch dispatch per radius
           evaluates only the changed borders, surviving borders are
           gathered from the verdict store and untouched sessions are
           served warm next time.

        Returns an accounting dict (facts added/removed, borders
        touched, sessions updated, per-layer cache invalidations).
        An empty delta is a no-op.
        """
        counts = {
            "added": len(delta.added),
            "removed": len(delta.removed),
            "borders_touched": 0,
            "sessions_updated": 0,
            "cache_invalidated": 0,
        }
        if delta.is_empty():
            return counts
        with self._session_guard:
            sessions = [
                session for _key, session in self._sessions.items() if session.matrix is not None
            ]
            self.system.database.apply_delta(delta)
            self.system.invalidate()
            self.stats.count("database_deltas")
            touched = self._border_computer.apply_delta(delta)
            # Each distinct session column is resolved once over the new
            # content.  Entries over a border some session still holds
            # survive the invalidation.
            matrices = [session.matrix for session in sessions]
            borders = VerdictMatrix.current_borders(matrices)
            dropped = self.cache.invalidate_borders(
                touched - set(borders.values()), delta.constants()
            )
            counts["borders_touched"] = len(touched)
            counts["cache_invalidated"] = sum(dropped.values())
            # Every session re-checks its own borders against the map: a
            # session may hold borders already evicted from the computer's
            # LRU cache, so an empty *touched* set does not prove the
            # sessions are clean.  Unchanged matrices come back as themselves.
            updated = VerdictMatrix.apply_database_delta(matrices, borders=borders)
            for session, matrix in zip(sessions, updated):
                if matrix is not session.matrix:
                    session.matrix = matrix
                    counts["sessions_updated"] += 1
            self.stats.merge(
                {
                    "delta_borders_touched": counts["borders_touched"],
                    "delta_sessions_updated": counts["sessions_updated"],
                }
            )
        return counts

    # -- session lifecycle -------------------------------------------------

    def _uses_matrix(self) -> bool:
        return self.system.specification.engine.verdicts.enabled

    def _session_for(self, labeling: Labeling, radius: int) -> Tuple[_Session, str]:
        """The warm session serving this request, and how it was obtained.

        Resolution order: exact signature hit (warm) → drift from the
        warm session of the same labeling *name* (incremental) → cold
        build.  The whole sequence runs under the session guard so
        concurrent requests resolve atomically.
        """
        with self._session_guard:
            return self._resolve_session(labeling, radius)

    def _resolve_session(self, labeling: Labeling, radius: int) -> Tuple[_Session, str]:
        key = (labeling.signature(), radius)
        session = self._sessions.get(key)
        if session is not None:
            self._name_index.put((labeling.name, radius), key)
            return session, "warm"
        if not self._uses_matrix():
            session = _Session(labeling, radius, None)
            self._remember(key, labeling, radius, session)
            return session, "cold"
        predecessor = self._drift_predecessor(labeling, radius, key)
        if predecessor is not None:
            drift = predecessor.labeling.diff(labeling)
            matrix = predecessor.matrix.apply_drift(
                drift.added, drift.removed, drift.flipped
            )
            session = _Session(labeling, radius, matrix)
            self._remember(key, labeling, radius, session)
            return session, "drift"
        evaluator = self.evaluator(radius)
        columns = BorderColumns.from_labeling(evaluator, labeling, radius)
        session = _Session(labeling, radius, VerdictMatrix(evaluator, columns))
        self._remember(key, labeling, radius, session)
        return session, "cold"

    def _drift_predecessor(
        self, labeling: Labeling, radius: int, key: Tuple, touch: bool = True
    ) -> Optional[_Session]:
        """The warm session of the same labeling name, if any.

        *touch=False* reads without promoting LRU recency — the
        observability path (:meth:`drift_of`) must not change which
        sessions survive eviction.
        """
        previous_key = self._name_index.get((labeling.name, radius), touch=touch)
        if previous_key is None or previous_key == key:
            return None
        predecessor = self._sessions.get(previous_key, touch=touch)
        if predecessor is None or predecessor.matrix is None:
            return None
        if not (predecessor.labeling.tuples() & labeling.tuples()):
            # No surviving columns: nothing carries over, so "drift" would
            # just be a cold build that additionally evaluates the
            # predecessor's whole pool against every new border.  This
            # happens when unrelated labelings share a name (e.g. the
            # constructor default); build cold and report it as such.
            return None
        return predecessor

    def _remember(self, key: Tuple, labeling: Labeling, radius: int, session: _Session) -> None:
        self._sessions.put(key, session)
        self._name_index.put((labeling.name, radius), key)

    # -- the request path --------------------------------------------------

    def explain(
        self,
        labeling: Labeling,
        radius: Optional[int] = None,
        criteria: Optional[Sequence[Union[str, Criterion]]] = None,
        expression: Optional[ScoringExpression] = None,
        strategy: str = "enumerate",
        candidates: Optional[Iterable[Union[str, OntologyQuery]]] = None,
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
        top_k: Optional[int] = 10,
    ) -> ExplanationReport:
        """One explanation request, served from the warm substrate.

        Semantically identical to
        :meth:`repro.core.explainer.OntologyExplainer.explain` with the
        same arguments on a fresh system — warmth only skips
        recomputation (the lifecycle tests pin report-identical output
        across cold, warm, drifted and reloaded services).  A negative
        *top_k* is refused before the request is counted or a session is
        resolved.
        """
        check_limit(top_k)
        radius = self.radius if radius is None else radius
        session, how = self._session_for(labeling, radius)
        # One atomic bump for the request and its outcome: concurrent
        # explain() callers (the gateway) must never observe — or lose —
        # a request whose outcome counter is missing.
        self.stats.count(
            "requests",
            {"warm": "warm_hits", "drift": "drift_updates", "cold": "cold_builds"}[how],
        )
        expression = expression or self.expression
        search = BestDescriptionSearch(
            self.system,
            labeling,
            radius,
            criteria if criteria is not None else self.criteria,
            expression,
            self.registry,
            border_computer=self._border_computer,
            evaluator=self.evaluator(radius),
            matrix=session.matrix,
        )
        return execute_search(
            search,
            expression,
            candidates=candidates,
            strategy=strategy,
            candidate_config=candidate_config,
            refinement_config=refinement_config,
            top_k=top_k,
        )

    def warm_start(
        self,
        labelings: Sequence[Labeling],
        radius: Optional[int] = None,
        candidates: Optional[Iterable[Union[str, "OntologyQuery"]]] = None,
        strategy: str = "enumerate",
        candidate_config: Optional[CandidateConfig] = None,
        refinement_config: Optional[RefinementConfig] = None,
    ) -> Dict[str, int]:
        """Pre-warm many labelings' sessions in one bit-sliced dispatch.

        Resolves (or builds) the warm session of every labeling, derives
        each session's candidate pool (a shared ``candidates`` list, or
        the pool the chosen ``strategy`` would generate per labeling)
        and hands all (matrix, pool) pairs to
        :meth:`~repro.engine.verdicts.VerdictMatrix.build_batch` — the
        cells no earlier request evaluated come from one J-match pass
        over the union of the borders missing one, the rest from the
        verdict store.  Subsequent :meth:`explain`
        calls for these labelings then run at warm-cache speed.

        Returns an accounting dict: labeling count, how each session was
        obtained (``warm``/``drift``/``cold``), ``rows`` newly stored,
        and ``batched`` (1 when the fleet's matrices were filled
        together, 0 only when there is no matrix to build: no labelings,
        or the per-pair oracle is selected).
        """
        radius = self.radius if radius is None else radius
        labelings = list(labelings)
        shared: Optional[List] = None
        if candidates is not None:
            shared = [
                parse_query(candidate) if isinstance(candidate, str) else candidate
                for candidate in candidates
            ]
        counts = {
            "labelings": len(labelings),
            "warm": 0,
            "drift": 0,
            "cold": 0,
            "rows": 0,
            "batched": 0,
        }
        matrices, pools = [], []
        for labeling in labelings:
            session, how = self._session_for(labeling, radius)
            counts[how] += 1
            if session.matrix is None:
                continue  # bitset path disabled: nothing to pre-build
            if shared is not None:
                pool: List = list(shared)
            else:
                search = BestDescriptionSearch(
                    self.system,
                    labeling,
                    radius,
                    self.criteria,
                    self.expression,
                    self.registry,
                    border_computer=self._border_computer,
                    evaluator=self.evaluator(radius),
                    matrix=session.matrix,
                )
                pool = list(
                    search.candidate_pool(strategy, candidate_config, refinement_config)
                )
            matrices.append(session.matrix)
            pools.append(pool)
        if matrices:
            before = sum(matrix.known_rows() for matrix in matrices)
            batched = VerdictMatrix.build_batch(matrices, pools)
            counts["batched"] = int(batched)
            counts["rows"] = sum(matrix.known_rows() for matrix in matrices) - before
        return counts

    def drift_of(self, labeling: Labeling, radius: Optional[int] = None) -> Optional[LabelingDrift]:
        """The drift the service *would* apply for this labeling, or ``None``.

        Observability helper: ``None`` means the request would be served
        warm (exact signature hit) or cold (no usable predecessor).
        """
        radius = self.radius if radius is None else radius
        key = (labeling.signature(), radius)
        if self._sessions.get(key, touch=False) is not None:
            return None  # exact hit: would be served warm
        predecessor = self._drift_predecessor(labeling, radius, key, touch=False)
        if predecessor is None:
            return None
        return predecessor.labeling.diff(labeling)

    def __str__(self):
        return (
            f"ExplanationService({self.system.name!r}, radius={self.radius}, "
            f"sessions={len(self._sessions)}, {self.stats})"
        )
