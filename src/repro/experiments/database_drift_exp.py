"""Experiment E14: fact-level database drift — incremental vs cold rebuilds.

A deployed explanation service does not only see *labeling* drift: the
source database itself changes between requests (records are inserted,
corrected, retired).  The cold answer is to rebuild the whole substrate
— borders, retrieved ABoxes, saturations, verdict rows — against the
post-update database on every request.  The incremental path
(:meth:`~repro.service.ExplanationService.apply_delta`) applies a
:class:`~repro.obdm.database.DatabaseDelta` in place, invalidates only
the state the delta can touch and re-evaluates only the verdict columns
whose border content actually changed.

Two rows over a streaming-updates loan workload (one labeling served
after each of ``steps`` deltas; each delta retires and inserts facts
around a rotating labeled applicant):

* ``incremental_vs_cold`` — the resident service absorbing every delta
  incrementally vs a brand-new service per step over a fresh copy of
  the post-delta database.  Rankings are checked identical step-for-
  step; ``benchmarks/bench_database_drift.py`` gates the speedup ≥3×.
* ``inverse_identity`` — applying each delta followed by its
  :meth:`~repro.obdm.database.DatabaseDelta.inverse` must restore the
  database fingerprint *and* the served ranking, byte for byte.
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional, Tuple

from ..core.labeling import Labeling
from ..obdm.database import DatabaseDelta, SourceDatabase
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_specification
from ..queries.atoms import Atom
from ..queries.terms import Constant
from ..service import ExplanationService
from .scalability import build_loan_pool
from .tables import ExperimentResult


def build_delta_stream(
    database: SourceDatabase,
    labeling: Labeling,
    steps: int,
    facts_per_step: int = 2,
) -> List[DatabaseDelta]:
    """A deterministic stream of deltas that actually touch the labeling.

    Step ``i`` targets labeled applicant ``i mod |tuples|``: it removes
    up to *facts_per_step* of the facts currently mentioning that
    applicant and inserts replacement facts under the same predicates
    with one argument swapped for a fresh ``DRIFT{i}_{j}`` constant —
    so every delta changes at least one border a warm session depends
    on.  Among the anchor's facts the *most local* ones are retired
    first (lowest total occurrence count of their non-anchor
    constants): a real streaming update touches a record and its
    immediate neighbourhood, not a categorical band constant shared by
    the entire database — and a delta mentioning such a hub constant
    would legitimately touch every border, leaving nothing incremental
    to measure.  Deltas are validated against a scratch copy, so each
    one is applicable exactly at its position in the stream.
    """
    scratch = database.copy(name="delta_stream_scratch")
    targets = sorted(
        {constant for labeled in labeling.tuples() for constant in labeled},
        key=lambda constant: str(constant.value),
    )
    if not targets:
        raise ValueError("the labeling names no constants to drift around")

    def locality(fact: Atom) -> Tuple[int, str]:
        spread = sum(
            len(scratch.facts_with_constant(constant))
            for constant in fact.constants()
            if constant != anchor
        )
        return (spread, str(fact))

    stream: List[DatabaseDelta] = []
    for step in range(steps):
        anchor = targets[step % len(targets)]
        candidates = sorted(scratch.facts_with_constant(anchor), key=locality)
        removed = candidates[:facts_per_step]
        added: List[Atom] = []
        for j, fact in enumerate(removed):
            fresh = Constant(f"DRIFT{step}_{j}")
            swapped: Tuple = tuple(
                fresh if position == len(fact.args) - 1 else value
                for position, value in enumerate(fact.args)
            )
            added.append(Atom(fact.predicate, swapped))
        delta = DatabaseDelta.of(added, removed)
        scratch.apply_delta(delta)
        stream.append(delta)
    return stream


def run_database_drift(
    applicants: int = 30,
    candidate_pool: int = 16,
    labeled_per_side: int = 8,
    steps: int = 4,
    facts_per_step: int = 2,
    radius: int = 0,
    seed: int = 7,
) -> ExperimentResult:
    """E14: streaming database updates, incremental vs cold rebuilds.

    Served at ``radius=0`` by default: in the banded loan domain every
    radius-1 border reaches almost every applicant through the shared
    band constants, so *any* update legitimately touches *every* border
    and there is nothing incremental left to measure — that dense
    regime is still covered here by the rankings-identity checks (the
    incremental path must degrade to a correct full refresh).  Radius 0
    keeps each border the applicant's own fact neighbourhood, which is
    the localized-update regime the delta path is built for.
    """
    workload = build_loan_pool(applicants, candidate_pool, labeled_per_side, seed=seed)
    base, pool = workload.database, workload.pool
    labeling = workload.labelings[0]
    stream = build_delta_stream(base, labeling, steps, facts_per_step)

    def make_service(database: SourceDatabase) -> ExplanationService:
        system = OBDMSystem(build_loan_specification(), database, name="loan_drift_e14")
        return ExplanationService(system, radius=radius)

    # -- cold: rebuild everything against the post-delta database ----------
    # Collect before each timed phase: the warm phase is milliseconds, so
    # a single gen-2 pause over garbage left by *earlier* experiments in
    # the same process (the harness runs E1..E13 first) would otherwise
    # dominate the measurement.
    cold_renders: List[str] = []
    gc.collect()
    start = time.perf_counter()
    cold_database = base.copy(name="loan_drift_cold")
    for delta in stream:
        cold_database.apply_delta(delta)
        cold_service = make_service(cold_database.copy(name="loan_drift_cold_step"))
        cold_renders.append(
            cold_service.explain(labeling, candidates=pool, top_k=None).render(top_k=None)
        )
    cold_seconds = time.perf_counter() - start

    # -- incremental: one resident service absorbing each delta ------------
    warm_service = make_service(base.copy(name="loan_drift_warm"))
    warm_service.explain(labeling, candidates=pool, top_k=None)  # warm the session
    warm_renders: List[str] = []
    borders_touched = 0
    gc.collect()
    start = time.perf_counter()
    for delta in stream:
        accounting = warm_service.apply_delta(delta)
        borders_touched += accounting["borders_touched"]
        warm_renders.append(
            warm_service.explain(labeling, candidates=pool, top_k=None).render(top_k=None)
        )
    warm_seconds = time.perf_counter() - start

    result = ExperimentResult(
        "E14",
        "Database drift: incremental delta propagation vs cold rebuilds",
        notes=(
            f"loan domain, |D|={len(base)} facts, {steps} deltas x "
            f"{facts_per_step} facts retired+inserted around labeled applicants"
        ),
    )
    result.add_row(
        mode="incremental_vs_cold",
        candidates=len(pool),
        steps=steps,
        cold_seconds=round(cold_seconds, 3),
        warm_seconds=round(warm_seconds, 3),
        speedup=round(cold_seconds / warm_seconds, 1) if warm_seconds > 0 else None,
        identical_rankings=warm_renders == cold_renders,
        borders_touched=borders_touched,
        sessions_updated=warm_service.stats.delta_sessions_updated,
    )

    # -- inverse identity: delta then inverse restores everything ----------
    identity_service = make_service(base.copy(name="loan_drift_identity"))
    before_fingerprint = identity_service.system.database.fingerprint()
    before_render = identity_service.explain(labeling, candidates=pool, top_k=None).render(
        top_k=None
    )
    identity_ok = True
    for delta in stream[: max(1, steps // 2)]:
        identity_service.apply_delta(delta)
        identity_service.apply_delta(delta.inverse())
        restored = identity_service.explain(labeling, candidates=pool, top_k=None).render(
            top_k=None
        )
        identity_ok = (
            identity_ok
            and restored == before_render
            and identity_service.system.database.fingerprint() == before_fingerprint
        )
    result.add_row(
        mode="inverse_identity",
        candidates=len(pool),
        steps=max(1, steps // 2),
        cold_seconds=None,
        warm_seconds=None,
        speedup=None,
        identical_rankings=identity_ok,
        borders_touched=None,
        sessions_updated=identity_service.stats.delta_sessions_updated,
    )

    return result
