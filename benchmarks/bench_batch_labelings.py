"""E13 — bit-sliced multi-labeling batching vs per-labeling matrix builds.

The pool-level kernel answers one labeling's whole verdict matrix in a
single set-at-a-time pass.  A monitoring fleet asks the same question
for *many* overlapping labelings (one per classifier snapshot, cohort,
or drift step).  The batch kernel (:mod:`repro.engine.batch_kernel`)
merges the layouts' borders into one union index, J-matches each
candidate once, and slices every layout's rows out of the global bit
rows with numpy popcounts; the verdict store
(:class:`~repro.engine.cache.VerdictStore`) keys the results by border,
so one ``VerdictMatrix.build`` per labeling evaluates only the borders
no earlier build evaluated.

This bench drives the E13 experiment
(:func:`repro.experiments.batch_kernel_exp.run_batch_labelings` — one
shared workload definition, the pool comes from the ``bench_pool``
fixture's builder) at gate-worthy sizes and asserts:

* one ``build_batch`` dispatch yields rows byte-identical to one
  ``build`` per labeling, and both evaluate exactly
  ``|pool| × |distinct borders|`` (query, border) cells — the batch in
  one dispatch, the sequential builds with no cell evaluated twice
  (exact ``CacheStats`` counts; the wall-clock ratio is printed and
  recorded, not gated);
* ``explain_batch`` reports stay byte-identical to per-labeling reports
  of the per-pair oracle across all four domain ontologies × {thread,
  process};
* generator-level provenance pruning discards a non-zero number of
  refinement-lattice conjunctions before materialisation while leaving
  every domain's top-k ranking unchanged.

Profiles (``REPRO_BENCH_PROFILE`` env var, see ``conftest.py``):

* ``quick`` — 36 candidates × 6 labelings on a 48-applicant database;
* ``full``  — 36 candidates × 8 labelings on a 56-applicant database.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.experiments.batch_kernel_exp import run_batch_labelings

pytestmark = pytest.mark.kernel


@dataclass(frozen=True)
class BatchBenchConfig:
    applicants: int
    candidate_pool: int
    labeled_per_side: int
    labelings: int
    rounds: int


PROFILES = {
    "quick": BatchBenchConfig(
        applicants=48, candidate_pool=36, labeled_per_side=14, labelings=6, rounds=3
    ),
    "full": BatchBenchConfig(
        applicants=56, candidate_pool=36, labeled_per_side=16, labelings=8, rounds=3
    ),
}


def test_bench_batch_labelings(bench_profile, bench_pool, bench_trajectory):
    config = PROFILES[bench_profile]
    workload = bench_pool(
        applicants=config.applicants,
        candidate_pool=config.candidate_pool,
        labeled_per_side=config.labeled_per_side,
        labelings=config.labelings,
    )
    result = run_batch_labelings(
        applicants=config.applicants,
        candidate_pool=config.candidate_pool,
        labeled_per_side=config.labeled_per_side,
        labelings=config.labelings,
        rounds=config.rounds,
        workload=workload,
    )
    dispatch_row = result.rows[0]
    identity_row = result.rows[1]
    pruning_row = result.rows[2]

    assert dispatch_row["candidates"] >= 20, "the acceptance gate requires >= 20 candidates"
    assert dispatch_row["labelings"] >= 4, "the acceptance gate requires >= 4 labelings"
    assert dispatch_row["identical"] is True, (
        "bit-sliced batch rows diverged from the per-labeling builds"
    )
    assert dispatch_row["batch_dispatches"] == 1, "build_batch must be one dispatch"
    assert dispatch_row["batch_cells"] == dispatch_row["expected_cells"], (
        "build_batch must evaluate each (query, distinct border) cell exactly once"
    )
    assert dispatch_row["legacy_dispatches"] == dispatch_row["labelings"]
    assert dispatch_row["legacy_cells"] == dispatch_row["expected_cells"], (
        "per-labeling builds evaluated some cell twice (or skipped one)"
    )
    assert identity_row["identical"] is True, (
        "batched explain reports diverged from the per-pair oracle across "
        "domains × executors"
    )
    assert identity_row["cells"] >= 16, (
        "the identity sweep must cover 4 domains × {thread, process} × 2 labelings"
    )
    assert pruning_row["identical"] is True, (
        "generator pruning changed a domain's top-k ranking"
    )
    assert pruning_row["pruned"] > 0, (
        "the provenance pruner discarded nothing — the generator-level "
        "pruning path went unexercised"
    )
    assert pruning_row["pruned"] < pruning_row["checked"], (
        "the pruner discarded every checked body — the bound is vacuous"
    )

    bench_trajectory(
        "batch_labelings",
        speedup=dispatch_row["speedup"],
        candidates=dispatch_row["candidates"],
        labelings=dispatch_row["labelings"],
        pruned=pruning_row["pruned"],
        checked=pruning_row["checked"],
        cells=dispatch_row["expected_cells"],
    )
    print()
    print(f"batch labelings bench [{bench_profile}]")
    print(result.render())
    print(
        f"  gate: 1 dispatch and {dispatch_row['expected_cells']} cells either way "
        "(speedup reported, not gated)"
    )
