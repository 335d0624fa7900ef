"""E11 — long-lived explanation service: warm drift serving vs cold rebuilds.

A stateless deployment rebuilds the whole evaluation substrate (border
ABoxes, J-match verdicts, verdict rows) on every request; the resident
:class:`~repro.service.ExplanationService` builds it once, then absorbs
labeling drift by gathering the surviving borders' verdicts from the
shared verdict store
(:meth:`~repro.engine.verdicts.VerdictMatrix.apply_drift`) and serving
the rest from the bounded shared cache.

This bench drives the E11 experiment
(:func:`repro.experiments.service_exp.run_service_warm` — one shared
workload definition, no duplicated harness) at gate-worthy sizes and
asserts:

* reports are identical request-for-request between the cold and warm
  paths, after a snapshot restart, and under cache limits tight enough
  to thrash (evictions must actually occur on that row);
* the resident service — *with eviction enabled* (bounded
  :class:`~repro.engine.cache.CacheLimits`) — is at least 3× faster
  than per-request rebuilds on the drift workload (measured ~4–8×; 3×
  keeps the gate robust on noisy CI machines).

Profiles (``REPRO_BENCH_PROFILE`` env var, see ``conftest.py``):

* ``quick`` — 20 candidates × 5 drifting requests, 20 borders;
* ``full``  — 28 candidates × 8 drifting requests, 28 borders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.service_exp import run_service_warm

MIN_SPEEDUP = 3.0


@dataclass(frozen=True)
class ServiceBenchConfig:
    applicants: int
    candidate_pool: int
    labeled_per_side: int
    steps: int
    drift_per_step: int


PROFILES = {
    "quick": ServiceBenchConfig(
        applicants=34, candidate_pool=20, labeled_per_side=10, steps=5, drift_per_step=1
    ),
    "full": ServiceBenchConfig(
        applicants=44, candidate_pool=28, labeled_per_side=14, steps=8, drift_per_step=2
    ),
}


def test_bench_service_warm(bench_profile, bench_trajectory):
    config = PROFILES[bench_profile]
    result = run_service_warm(
        applicants=config.applicants,
        candidate_pool=config.candidate_pool,
        labeled_per_side=config.labeled_per_side,
        steps=config.steps,
        drift_per_step=config.drift_per_step,
    )
    warm_row = result.rows[0]
    persistence_row = result.rows[1]
    eviction_row = result.rows[2]

    assert warm_row["requests"] >= 5, "the drift workload needs >= 5 requests"
    assert warm_row["drift_updates"] >= warm_row["requests"] - 2, (
        "the warm service should absorb almost every request incrementally"
    )
    assert warm_row["identical_rankings"] is True, (
        "warm-service rankings diverged from per-request cold rebuilds"
    )
    assert persistence_row["identical_rankings"] is True, (
        "rankings diverged after a save()/load() snapshot restart"
    )
    assert eviction_row["identical_rankings"] is True, (
        "rankings diverged under tight cache limits"
    )
    assert eviction_row["evictions"] > 0, (
        "the tight-limits row never evicted — the eviction path went untested"
    )

    speedup = warm_row["speedup"] if warm_row["speedup"] is not None else float("inf")
    bench_trajectory(
        "service_warm",
        speedup=warm_row["speedup"],
        requests=warm_row["requests"],
        drift_updates=warm_row["drift_updates"],
    )
    print()
    print(f"service warm bench [{bench_profile}]")
    print(result.render())
    print(f"  gate: speedup >= {MIN_SPEEDUP} x (eviction enabled on the warm service)")
    assert speedup >= MIN_SPEEDUP, (
        f"warm drift serving only {speedup:.1f}x faster than per-request rebuilds "
        f"(required >= {MIN_SPEEDUP}x)"
    )
