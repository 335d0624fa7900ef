"""Experiment E11: long-lived explanation serving vs per-request rebuilds.

A production explanation service answers a *stream* of requests whose
labelings drift over time (the classifier is retrained, users are added
and removed, predictions flip).  The one-shot path pays the full
certain-answer + verdict cost on every request; the
:class:`~repro.service.ExplanationService` pays it once and then serves
from the warm substrate, absorbing drift incrementally
(:meth:`~repro.engine.verdicts.VerdictMatrix.apply_drift`).

Three rows:

* ``warm_vs_cold`` — the same drift workload served by (a) a brand-new
  service per request (cold: fresh specification, empty cache — what a
  stateless deployment would do) and (b) one resident service with
  bounded caches (eviction enabled).  Reports are checked identical
  request-for-request; the benchmark
  ``benchmarks/bench_service_warm.py`` gates the speedup at ≥3×.
* ``persistence`` — the resident service snapshots its cache, a fresh
  service loads the snapshot and replays the stream; rankings must be
  identical and the replay should hit the persisted verdict rows.
* ``tight_eviction`` — the same stream through a service whose caches
  are small enough to thrash: evictions must actually happen and the
  rankings must *still* be identical (eviction costs recomputation,
  never correctness).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Sequence

from ..core.labeling import Labeling
from ..engine.cache import CacheLimits
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_specification
from ..service import ExplanationService
from .scalability import build_loan_pool
from .tables import ExperimentResult


def _drift_stream(
    applicants: Sequence[str], labeled_per_side: int, steps: int, drift_per_step: int
) -> List[Labeling]:
    """A deterministic stream of labelings under one drifting name.

    *applicants* are the database's applicant names, in order; the first
    ``2 * labeled_per_side`` form the initial labeling and the rest are
    spares.  Each step flips ``drift_per_step`` tuples per side (the
    front of one side moves to the back of the other), then retires the
    oldest negative into the spares and promotes the longest-waiting
    spare into the negatives — the adds / removes / flips mix
    :meth:`Labeling.diff` classifies.  Both sides keep their size at
    every step, and every named applicant exists in the database.
    """
    total = 2 * labeled_per_side
    if len(applicants) < total:
        raise ValueError(
            f"{len(applicants)} applicants cannot fill {labeled_per_side} per side"
        )
    positives = list(applicants[:labeled_per_side])
    negatives = list(applicants[labeled_per_side:total])
    spares = list(applicants[total:])
    stream = [Labeling(list(positives), list(negatives), name="lambda_drift")]
    for _ in range(1, steps):
        for _ in range(drift_per_step):
            positives.append(negatives.pop(0))
            negatives.append(positives.pop(0))
        if spares:
            spares.append(negatives.pop(0))
            negatives.append(spares.pop(0))
        stream.append(Labeling(list(positives), list(negatives), name="lambda_drift"))
    return stream


def run_service_warm(
    applicants: int = 30,
    candidate_pool: int = 16,
    labeled_per_side: int = 8,
    steps: int = 4,
    drift_per_step: int = 1,
    seed: int = 7,
) -> ExperimentResult:
    """E11: resident warm service vs per-request cold rebuilds."""
    # The shared loan workload helper builds the database and the pool
    # (its first labeling covers the same name window as the drift
    # stream's first step, so the generated pool is identical).
    workload = build_loan_pool(applicants, candidate_pool, labeled_per_side, seed=seed)
    database, pool = workload.database, workload.pool

    def make_service(limits: Optional[CacheLimits] = None) -> ExplanationService:
        specification = build_loan_specification()
        system = OBDMSystem(specification, database, name="loan_service_e11")
        return ExplanationService(system, radius=1, cache_limits=limits)

    names = sorted(
        str(fact.args[0].value) for fact in database.facts_with_predicate("APPLICANT")
    )
    stream = _drift_stream(names, labeled_per_side, steps, drift_per_step)

    # -- cold: a stateless deployment rebuilds everything per request ------
    start = time.perf_counter()
    cold_reports = [
        make_service().explain(labeling, candidates=pool, top_k=None)
        for labeling in stream
    ]
    cold_seconds = time.perf_counter() - start

    # -- warm: one resident service, bounded caches (eviction enabled) ----
    warm_limits = CacheLimits(
        saturations=1024,
        border_aboxes=1024,
        verdict_queries=1024,
        matches=100_000,
        subqueries=16,
    )
    warm_service = make_service(warm_limits)
    start = time.perf_counter()
    warm_reports = [
        warm_service.explain(labeling, candidates=pool, top_k=None)
        for labeling in stream
    ]
    warm_seconds = time.perf_counter() - start
    identical = all(
        cold.render(top_k=None) == warm.render(top_k=None)
        for cold, warm in zip(cold_reports, warm_reports)
    )

    result = ExperimentResult(
        "E11",
        "Explanation service: warm drift serving vs per-request rebuilds",
        notes=(
            f"loan domain, |D|={len(database)} facts, {steps} requests under "
            f"one drifting labeling name, {drift_per_step} flips/side/step"
        ),
    )
    result.add_row(
        mode="warm_vs_cold",
        candidates=len(pool),
        requests=len(stream),
        cold_seconds=round(cold_seconds, 3),
        warm_seconds=round(warm_seconds, 3),
        speedup=round(cold_seconds / warm_seconds, 1) if warm_seconds > 0 else None,
        identical_rankings=identical,
        drift_updates=warm_service.stats.drift_updates,
        cold_builds=warm_service.stats.cold_builds,
        evictions=warm_service.cache_stats.evictions,
    )

    # -- persistence: restart from a snapshot ------------------------------
    handle, snapshot_path = tempfile.mkstemp(suffix=".cache", prefix="repro_e11_")
    os.close(handle)
    try:
        warm_service.save(snapshot_path)
        restarted = make_service(warm_limits)
        start = time.perf_counter()
        restarted.load(snapshot_path)
        restarted_reports = [
            restarted.explain(labeling, candidates=pool, top_k=None)
            for labeling in stream
        ]
        restarted_seconds = time.perf_counter() - start
    finally:
        os.unlink(snapshot_path)
    result.add_row(
        mode="persistence",
        candidates=len(pool),
        requests=len(stream),
        cold_seconds=round(cold_seconds, 3),
        warm_seconds=round(restarted_seconds, 3),
        speedup=round(cold_seconds / restarted_seconds, 1) if restarted_seconds > 0 else None,
        identical_rankings=all(
            cold.render(top_k=None) == warm.render(top_k=None)
            for cold, warm in zip(cold_reports, restarted_reports)
        ),
        drift_updates=restarted.stats.drift_updates,
        cold_builds=restarted.stats.cold_builds,
        evictions=restarted.cache_stats.evictions,
    )

    # -- tight limits: eviction must thrash, results must not change -------
    tight_service = make_service(
        CacheLimits(
            saturations=4, border_aboxes=4, verdict_queries=4, matches=64, subqueries=1
        )
    )
    tight_reports = [
        tight_service.explain(labeling, candidates=pool, top_k=None)
        for labeling in stream
    ]
    result.add_row(
        mode="tight_eviction",
        candidates=len(pool),
        requests=len(stream),
        cold_seconds=None,
        warm_seconds=None,
        speedup=None,
        identical_rankings=all(
            cold.render(top_k=None) == tight.render(top_k=None)
            for cold, tight in zip(cold_reports, tight_reports)
        ),
        drift_updates=tight_service.stats.drift_updates,
        cold_builds=tight_service.stats.cold_builds,
        evictions=tight_service.cache_stats.evictions,
    )
    return result
