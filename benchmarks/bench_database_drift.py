"""E14 — database drift: incremental delta propagation vs cold rebuilds.

A streaming-updates deployment sees the *source database* change
between requests.  The cold answer rebuilds the whole substrate
(borders, retrieved ABoxes, saturations, verdict rows) against the
post-update database on every request; the incremental path
(:meth:`~repro.service.ExplanationService.apply_delta`) mutates the
database in place, invalidates only the state the delta can touch and
re-evaluates only the verdict columns whose border content actually
changed.

This bench drives the E14 experiment
(:func:`repro.experiments.database_drift_exp.run_database_drift` — one
shared workload definition, no duplicated harness) and asserts:

* rankings are identical step-for-step between the incremental and
  cold paths, and after each delta+inverse round trip;
* the deltas actually exercised the incremental machinery (borders
  touched, session matrices updated);
* absorbing a stream of localized updates incrementally is at least 3×
  faster than per-step cold rebuilds (measured ~6–8×; 3× keeps the
  gate robust on noisy CI machines);
* the recorded trajectory entry carries the memory high-water mark
  (``peak_rss_bytes``) every bench record now samples.

Profiles (``REPRO_BENCH_PROFILE`` env var, see ``conftest.py``):

* ``quick`` — 16 candidates × 4 deltas of 2 facts, 16 borders;
* ``full``  — 24 candidates × 6 deltas of 1 fact, 24 borders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.experiments.database_drift_exp import run_database_drift

MIN_SPEEDUP = 3.0


@dataclass(frozen=True)
class DriftBenchConfig:
    applicants: int
    candidate_pool: int
    labeled_per_side: int
    steps: int
    facts_per_step: int


PROFILES = {
    "quick": DriftBenchConfig(
        applicants=30, candidate_pool=16, labeled_per_side=8, steps=4, facts_per_step=2
    ),
    "full": DriftBenchConfig(
        applicants=40, candidate_pool=24, labeled_per_side=12, steps=6, facts_per_step=1
    ),
}


def test_bench_database_drift(bench_profile, bench_trajectory):
    config = PROFILES[bench_profile]
    result = run_database_drift(
        applicants=config.applicants,
        candidate_pool=config.candidate_pool,
        labeled_per_side=config.labeled_per_side,
        steps=config.steps,
        facts_per_step=config.facts_per_step,
    )
    incremental_row = result.rows[0]
    identity_row = result.rows[1]

    assert incremental_row["identical_rankings"] is True, (
        "incremental post-delta rankings diverged from cold rebuilds"
    )
    assert identity_row["identical_rankings"] is True, (
        "a delta + inverse round trip did not restore the original ranking"
    )
    assert incremental_row["borders_touched"] > 0, (
        "no borders touched — the delta stream never exercised invalidation"
    )
    assert incremental_row["sessions_updated"] >= 1, (
        "no session matrix was incrementally updated"
    )

    speedup = (
        incremental_row["speedup"]
        if incremental_row["speedup"] is not None
        else float("inf")
    )
    path = bench_trajectory(
        "database_drift",
        speedup=incremental_row["speedup"],
        steps=incremental_row["steps"],
        borders_touched=incremental_row["borders_touched"],
        sessions_updated=incremental_row["sessions_updated"],
    )
    recorded = json.loads(path.read_text())[-1]
    assert "peak_rss_bytes" in recorded, (
        "trajectory records must sample the memory high-water mark"
    )
    print()
    print(f"database drift bench [{bench_profile}]")
    print(result.render())
    print(f"  gate: speedup >= {MIN_SPEEDUP} x (incremental delta vs cold rebuild)")
    assert speedup >= MIN_SPEEDUP, (
        f"incremental drift serving only {speedup:.1f}x faster than per-step cold "
        f"rebuilds (required >= {MIN_SPEEDUP}x)"
    )
