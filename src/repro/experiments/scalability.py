"""Experiments E7/E9/E10: scalability of borders, search and batch scoring.

Four sweeps:

* **border sweep** — wall-clock time and border sizes as the database
  grows and the radius increases (Definition 3.2 is the inner loop of
  everything else, so its scaling matters most);
* **search sweep** — end-to-end time of the explanation search as the
  number of labelled tuples grows, for a fixed candidate budget;
* **batch sweep (E9)** — chase-strategy batch scoring through the shared
  evaluation cache (:mod:`repro.engine`) against the per-call path, the
  workload ``benchmarks/bench_batch_explain.py`` gates;
* **criteria sweep (E10)** — the bitset verdict-matrix path
  (:mod:`repro.engine.verdicts`) against the legacy per-pair path on a
  criteria-phase workload (many (Δ, Z) configurations over one pool),
  plus a process-sharding identity check; gated by
  ``benchmarks/bench_bitset_criteria.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.border import BorderComputer
from ..core.candidates import CandidateConfig, CandidateGenerator
from ..core.explainer import OntologyExplainer
from ..core.labeling import Labeling
from ..core.scoring import (
    HarmonicMean,
    MinScore,
    WeightedAverage,
    balanced_expression,
    example_3_8_expression,
    fidelity_first_expression,
)
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_specification
from ..ontologies.university import build_university_specification
from ..workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from ..workloads.university_gen import UniversityWorkloadConfig, generate_university_workload
from .tables import ExperimentResult


@dataclass(frozen=True)
class LoanScoringPool:
    """One loan-domain scoring workload: database, labelings, candidate pool.

    The shared construction behind the engine benches/experiments (E9
    batch scoring, E10 bitset criteria, E11 service warmth, E12 match
    kernel) — one definition instead of four copies of the same
    workload-generation snippet.  Exposed to the benches through the
    ``bench_pool`` fixture in ``benchmarks/conftest.py``.
    """

    database: object
    labelings: Tuple[Labeling, ...]
    pool: Tuple[object, ...]


def build_loan_pool(
    applicants: int,
    candidate_pool: int,
    labeled_per_side: int,
    labelings: int = 1,
    seed: int = 7,
    specification=None,
    max_atoms: int = 2,
) -> LoanScoringPool:
    """Deterministic loan workload + labelings + bottom-up candidate pool.

    Labeling ``i`` covers the name window starting at offset ``i`` (the
    E9/E10 shape); the pool is generated from the first labeling.  Pass
    a *specification* to generate under a non-default configuration
    (e.g. the chase strategy); the pool itself depends only on the
    database and borders.
    """
    database = generate_loan_workload(
        LoanWorkloadConfig(applicants=applicants, seed=seed)
    ).database
    size = 2 * labeled_per_side
    names = [f"APP{i:04d}" for i in range(size + labelings - 1)]
    labeling_list = tuple(
        Labeling(
            positives=names[offset : offset + labeled_per_side],
            negatives=names[offset + labeled_per_side : offset + size],
            name=f"lambda_{offset}",
        )
        for offset in range(labelings)
    )
    specification = specification or build_loan_specification()
    pool_system = OBDMSystem(specification, database, name="loan_pool")
    pool = CandidateGenerator(
        pool_system, 1, CandidateConfig(max_atoms=max_atoms, max_candidates=candidate_pool)
    ).generate(labeling_list[0])
    return LoanScoringPool(database, labeling_list, tuple(pool))


def run_border_scalability(
    sizes: Sequence[int] = (50, 100, 200, 400),
    radii: Sequence[int] = (0, 1, 2),
    seed: int = 13,
) -> ExperimentResult:
    """E7a: border computation time/size vs database size and radius."""
    result = ExperimentResult(
        "E7a",
        "Border computation: time and size vs |D| and radius",
    )
    for size in sizes:
        workload = generate_university_workload(
            UniversityWorkloadConfig(students=size, enrolments_per_student=2, seed=seed)
        )
        students = [f"S{i:05d}" for i in range(size)]
        for radius in radii:
            computer = BorderComputer(workload.database)
            start = time.perf_counter()
            statistics = computer.statistics(students, radius)
            elapsed = time.perf_counter() - start
            result.add_row(
                students=size,
                facts=len(workload.database),
                radius=radius,
                mean_border_size=round(statistics["mean"], 2),
                max_border_size=int(statistics["max"]),
                seconds_total=round(elapsed, 4),
                seconds_per_tuple=round(elapsed / max(1, size), 6),
            )
    return result


def run_search_scalability(
    sizes: Sequence[int] = (20, 40, 80),
    seed: int = 13,
    max_atoms: int = 3,
    max_candidates: int = 600,
) -> ExperimentResult:
    """E7b: end-to-end explanation search time vs number of labelled tuples."""
    specification = build_university_specification()
    result = ExperimentResult(
        "E7b",
        "Best-description search: end-to-end time vs labelled tuples",
        notes=f"candidate budget: max_atoms={max_atoms}, max_candidates={max_candidates}",
    )
    for size in sizes:
        workload = generate_university_workload(
            UniversityWorkloadConfig(students=size, enrolments_per_student=2, seed=seed)
        )
        labeling = Labeling(
            workload.parameters["positives"],
            workload.parameters["negatives"],
            name=f"university_{size}",
        )
        system = OBDMSystem(specification, workload.database, name=f"university_{size}")
        explainer = OntologyExplainer(system)
        start = time.perf_counter()
        report = explainer.explain(
            labeling,
            radius=1,
            candidate_config=CandidateConfig(max_atoms=max_atoms, max_candidates=max_candidates),
            top_k=1,
        )
        elapsed = time.perf_counter() - start
        best = report.best
        result.add_row(
            students=size,
            positives=len(labeling.positives),
            negatives=len(labeling.negatives),
            candidates=report.candidate_count,
            seconds=round(elapsed, 3),
            best_query=str(best.query) if best is not None else "",
            best_coverage=round(best.profile.positive_coverage(), 3) if best else None,
            best_exclusion=round(best.profile.negative_exclusion(), 3) if best else None,
        )
    return result


def run_batch_scoring(
    applicants: int = 14,
    candidate_pool: int = 12,
    labeled_per_side: int = 3,
    labelings: int = 2,
    seed: int = 7,
) -> ExperimentResult:
    """E9: cached batch scoring vs the per-call path (chase strategy).

    Scores one candidate pool against several labelings over the loan
    domain, once with the shared evaluation cache disabled (the seed's
    per-call behaviour: the border ABox is re-chased on every
    ``is_certain_answer``) and once through ``explain_batch``.  The
    rankings are checked to be identical; the table reports both times
    and the speedup.
    """
    workload = build_loan_pool(
        applicants,
        candidate_pool,
        labeled_per_side,
        labelings,
        seed=seed,
        specification=build_loan_specification().with_strategy("chase"),
    )
    database, labeling_list, pool = workload.database, workload.labelings, workload.pool

    def make_system(cache_enabled: bool) -> OBDMSystem:
        specification = build_loan_specification().with_strategy("chase")
        specification.engine.cache.enabled = cache_enabled
        # E9 isolates the evaluation-*cache* speedup, so both sides score
        # through the per-pair oracle: the match kernel saturates each
        # border once per matrix even with the cache disabled, which
        # would erase the per-call chase behaviour this baseline models
        # (the kernel's own gate is E12 / bench_match_kernel).
        specification.engine.verdicts.enabled = False
        return OBDMSystem(specification, database, name="loan_chase_e9")

    baseline_explainer = OntologyExplainer(make_system(cache_enabled=False))
    start = time.perf_counter()
    baseline = [
        baseline_explainer.explain(labeling, candidates=pool) for labeling in labeling_list
    ]
    per_call_seconds = time.perf_counter() - start

    batch_system = make_system(cache_enabled=True)
    start = time.perf_counter()
    batched = OntologyExplainer(batch_system).explain_batch(labeling_list, candidates=pool)
    batch_seconds = time.perf_counter() - start

    identical = all(
        left.render(top_k=None) == right.render(top_k=None)
        for left, right in zip(baseline, batched)
    )
    stats = batch_system.specification.engine.cache.stats
    result = ExperimentResult(
        "E9",
        "Batch scoring: shared evaluation cache vs per-call chase",
        notes=f"loan domain, |D|={len(database)} facts, strategy=chase",
    )
    result.add_row(
        candidates=len(pool),
        labelings=len(labeling_list),
        per_call_seconds=round(per_call_seconds, 3),
        batch_seconds=round(batch_seconds, 3),
        speedup=round(per_call_seconds / batch_seconds, 1) if batch_seconds > 0 else None,
        identical_rankings=identical,
        saturations_saved=stats.saturation_hits,
    )
    return result


def _criteria_phase_configs():
    """A spread of (Δ, Z) configurations over the paper's criteria.

    Scoring services re-rank the same pool under many such
    configurations (the weight-ablation experiment E8a is exactly this);
    the verdicts do not change between them, which is what the verdict
    matrix exploits.
    """
    return [
        ("example_3_8", ("delta1", "delta4", "delta5"), example_3_8_expression()),
        ("example_3_8_a3", ("delta1", "delta4", "delta5"), example_3_8_expression(alpha=3)),
        ("balanced", ("delta1", "delta4"), balanced_expression()),
        ("fidelity_first", ("delta1", "delta4", "delta5"), fidelity_first_expression()),
        (
            "all_deltas",
            ("delta1", "delta2", "delta3", "delta4", "delta5", "delta6"),
            WeightedAverage.of(
                {f"delta{i}": weight for i, weight in zip(range(1, 7), (3, 1, 1, 3, 1, 1))}
            ),
        ),
        ("worst_case", ("delta1", "delta4"), MinScore(("delta1", "delta4"))),
        ("harmonic", ("delta1", "delta3"), HarmonicMean(("delta1", "delta3"))),
    ]


def run_bitset_criteria(
    applicants: int = 40,
    candidate_pool: int = 36,
    labeled_per_side: int = 16,
    labelings: int = 2,
    rounds: int = 3,
    seed: int = 7,
) -> ExperimentResult:
    """E10: bitset verdict-matrix criteria phase vs the legacy per-pair path.

    Ranks one candidate pool against several labelings under several
    (Δ, Z) configurations over the loan domain, once with the verdict
    matrix disabled (the legacy path: one ``matches_border`` question
    and one frozenset profile per (candidate, border, configuration))
    and once with it enabled (one bitset row per candidate, criteria as
    popcounts).  Both paths run with a warm evaluation cache, so the
    measured difference is the criteria phase itself, not certain-answer
    computation.  A second row checks that process-sharded batch scoring
    stays sequential-identical.
    """
    workload = build_loan_pool(
        applicants, candidate_pool, labeled_per_side, labelings, seed=seed
    )
    database, labeling_list, pool = workload.database, workload.labelings, workload.pool
    size = 2 * labeled_per_side

    def make_system(bitset_enabled: bool) -> OBDMSystem:
        specification = build_loan_specification()
        specification.engine.verdicts.enabled = bitset_enabled
        return OBDMSystem(specification, database, name="loan_bitset_e10")

    bitset_system = make_system(bitset_enabled=True)
    configs = _criteria_phase_configs()

    legacy_explainer = OntologyExplainer(make_system(bitset_enabled=False))
    bitset_explainer = OntologyExplainer(bitset_system)

    def run_configs(explainer: OntologyExplainer, repeat: int):
        reports = []
        start = time.perf_counter()
        for _ in range(repeat):
            for _name, criteria, expression in configs:
                for labeling in labeling_list:
                    reports.append(
                        explainer.explain(
                            labeling,
                            criteria=criteria,
                            expression=expression,
                            candidates=pool,
                            top_k=None,
                        )
                    )
        return time.perf_counter() - start, reports

    # Warm both caches (border ABoxes + J-match memos / verdict rows), so
    # the timed passes compare criteria-phase work, not certain answers.
    run_configs(legacy_explainer, repeat=1)
    run_configs(bitset_explainer, repeat=1)

    legacy_seconds, legacy_reports = run_configs(legacy_explainer, repeat=rounds)
    bitset_seconds, bitset_reports = run_configs(bitset_explainer, repeat=rounds)
    identical = all(
        left.render(top_k=None) == right.render(top_k=None)
        for left, right in zip(legacy_reports, bitset_reports)
    )

    result = ExperimentResult(
        "E10",
        "Criteria phase: bitset verdict matrix vs per-pair matching",
        notes=(
            f"loan domain, |D|={len(database)} facts, {len(configs)} (Δ, Z) "
            f"configurations, warm caches on both paths"
        ),
    )
    stats = bitset_system.specification.engine.cache.stats
    result.add_row(
        mode="criteria_phase",
        candidates=len(pool),
        labelings=len(labeling_list),
        borders=size,
        configs=len(configs),
        rounds=rounds,
        legacy_seconds=round(legacy_seconds, 3),
        bitset_seconds=round(bitset_seconds, 3),
        speedup=round(legacy_seconds / bitset_seconds, 1) if bitset_seconds > 0 else None,
        identical_rankings=identical,
        verdict_rows_reused=stats.verdict_row_hits,
    )

    # Process sharding: identical rankings, whatever the executor.
    sequential = bitset_explainer.explain_batch(
        labeling_list, candidates=pool, max_workers=1, top_k=None
    )
    shard_system = make_system(bitset_enabled=True)
    shard_explainer = OntologyExplainer(shard_system)
    start = time.perf_counter()
    sharded = shard_explainer.explain_batch(
        labeling_list, candidates=pool, executor="process", max_workers=2, top_k=None
    )
    sharded_seconds = time.perf_counter() - start
    # Worker-side counters are merged back into the parent cache after
    # each shard completes (repro.engine.batch), so the reuse number
    # below covers the work actually done inside the worker processes.
    shard_stats = shard_system.specification.engine.cache.stats
    result.add_row(
        mode="process_sharding",
        candidates=len(pool),
        labelings=len(labeling_list),
        borders=size,
        configs=1,
        rounds=1,
        legacy_seconds=None,
        bitset_seconds=round(sharded_seconds, 3),
        speedup=None,
        identical_rankings=all(
            left.render(top_k=None) == right.render(top_k=None)
            for left, right in zip(sequential, sharded)
        ),
        verdict_rows_reused=shard_stats.verdict_row_hits,
    )
    return result
