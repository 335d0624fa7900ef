"""E16 — out-of-core serving: SQLite pushdown backend vs the in-memory seed.

The backend refactor (:mod:`repro.obdm.backend`) claims a workload well
beyond the comfortable in-memory size can be served end-to-end with the
fact set living outside the Python heap — SQL pushdown for mapping
application, indexed point lookups for borders — without moving a
single ranking byte.  This bench drives the E16 experiment
(:func:`repro.experiments.out_of_core_exp.run_out_of_core` — one shared
workload definition, no duplicated harness) and asserts:

* rankings are byte-identical across the memory backend, the SQLite
  backend with pushdown, and the SQLite backend with pushdown disabled
  (legacy per-assertion fallback);
* the streaming populate path reproduces the batch generator's fact
  set exactly (fingerprint parity across all stores);
* at a workload ``scale >= 10``× the base size, the SQLite phase's
  Python-heap allocation peak (deterministic, via :mod:`tracemalloc`)
  stays strictly below the memory backend's peak for the *same* serve
  — the fact set is genuinely off the heap, not merely mirrored;
* the recorded trajectory entry carries the gated ``peak_ratio`` and
  the memory high-water mark (``peak_rss_bytes``) every bench record
  samples.

Profiles (``REPRO_BENCH_PROFILE`` env var, see ``conftest.py``):

* ``quick`` — 24 base applicants scaled 10×, 16 candidates;
* ``full``  — 40 base applicants scaled 12×, 24 candidates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.experiments.out_of_core_exp import run_out_of_core

pytestmark = pytest.mark.backend


@dataclass(frozen=True)
class OutOfCoreBenchConfig:
    base_applicants: int
    scale: int
    candidate_pool: int
    labeled_per_side: int


PROFILES = {
    "quick": OutOfCoreBenchConfig(
        base_applicants=24, scale=10, candidate_pool=16, labeled_per_side=8
    ),
    "full": OutOfCoreBenchConfig(
        base_applicants=40, scale=12, candidate_pool=24, labeled_per_side=12
    ),
}

MIN_SCALE = 10


def test_bench_out_of_core(bench_profile, bench_trajectory):
    config = PROFILES[bench_profile]
    result = run_out_of_core(
        base_applicants=config.base_applicants,
        scale=config.scale,
        candidate_pool=config.candidate_pool,
        labeled_per_side=config.labeled_per_side,
    )
    pushdown_row, scaled_row = result.rows

    assert pushdown_row["identical_rankings"] is True, (
        "rankings diverged across memory / sqlite / sqlite-without-pushdown"
    )
    assert pushdown_row["identical_fingerprints"] is True, (
        "database fingerprints diverged across backends"
    )
    assert pushdown_row["populate_parity"] is True, (
        "streaming populate produced a different fact set than the batch generator"
    )
    assert scaled_row["identical_rankings"] is True, (
        "scaled sqlite serving diverged from the scaled memory backend"
    )
    assert scaled_row["scale"] >= MIN_SCALE, (
        f"workload only {scaled_row['scale']}x the base size "
        f"(the out-of-core claim needs >= {MIN_SCALE}x)"
    )
    assert scaled_row["scaled_facts"] >= MIN_SCALE * scaled_row["base_facts"] * 0.8, (
        "scaled workload did not actually grow ~scale x in facts"
    )

    path = bench_trajectory(
        "out_of_core",
        scale=scaled_row["scale"],
        scaled_facts=scaled_row["scaled_facts"],
        memory_peak_bytes=scaled_row["memory_peak_bytes"],
        sqlite_peak_bytes=scaled_row["sqlite_peak_bytes"],
        peak_ratio=scaled_row["peak_ratio"],
    )
    recorded = json.loads(path.read_text())[-1]
    assert recorded["peak_ratio"] == scaled_row["peak_ratio"], (
        "the trajectory record must carry the gated heap-peak ratio"
    )
    assert "peak_rss_bytes" in recorded, (
        "trajectory records must sample the memory high-water mark"
    )
    print()
    print(f"out-of-core bench [{bench_profile}]")
    print(result.render())
    print("  gate: sqlite Python-heap peak < memory-backend peak at >= 10x scale")
    assert scaled_row["sqlite_peak_bytes"] < scaled_row["memory_peak_bytes"], (
        f"sqlite serving peaked at {scaled_row['sqlite_peak_bytes']} bytes on the "
        f"Python heap, not below the memory backend's "
        f"{scaled_row['memory_peak_bytes']} — the facts are not off-heap"
    )
