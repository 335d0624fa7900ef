"""Experiment E7: scalability of borders and search, plus the loan pool.

Two sweeps:

* **border sweep** — wall-clock time and border sizes as the database
  grows and the radius increases (Definition 3.2 is the inner loop of
  everything else, so its scaling matters most);
* **search sweep** — end-to-end time of the explanation search as the
  number of labelled tuples grows, for a fixed candidate budget.

:func:`build_loan_pool` is the loan-domain scoring workload that the
serving experiments (E15 gateway, E16 SQLite backend) and several
engine test suites share.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.border import BorderComputer
from ..core.candidates import CandidateConfig, CandidateGenerator
from ..core.explainer import OntologyExplainer
from ..core.labeling import Labeling
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_specification
from ..ontologies.university import build_university_specification
from ..workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from ..workloads.university_gen import UniversityWorkloadConfig, generate_university_workload
from .tables import ExperimentResult


@dataclass(frozen=True)
class LoanScoringPool:
    """One loan-domain scoring workload: database, labelings, candidate pool.

    The shared construction behind the serving experiments (E15, E16)
    and the engine test suites that score a loan pool — one definition
    instead of copies of the same workload-generation snippet.
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

    Labeling ``i`` covers the name window starting at offset ``i``; the
    pool is generated from the first labeling.  Pass
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
