"""Experiment E12: pool-level match kernel vs the per-pair oracle.

Verdict-row *construction* is the dominant cost of scoring: the
per-pair Definition 3.4 oracle answers one certain-answer question per
(candidate, border) cell, O(|pool| × |borders|) independent rewriting
and homomorphism searches.  The pool-level match kernel
(:mod:`repro.engine.kernel`) merges every border ABox into one
provenance-indexed fact store and emits a candidate's whole row from a
single set-at-a-time pass, tabling shared subquery prefixes across the
candidate lattice.

Three rows:

* ``matrix_build`` — cold :meth:`VerdictMatrix.build` over a loan-domain
  pool vs the same rows from per-pair ``matches_border`` loops
  (:func:`oracle_row`), with the border-ABox retrieval layer warmed on
  both sides so the measured phase is row construction itself
  (retrieval is identical, shared work).  The benchmark
  ``benchmarks/bench_match_kernel.py`` gates the speedup at ≥3×.
* ``identity`` — rankings of a CQ + UCQ pool across **all four domain
  ontologies**, kernel path vs the per-pair oracle
  (``engine.verdicts.enabled = False``), under both the thread and the
  process executor: every cell must be byte-identical.
* ``top_k_pruning`` — :meth:`BestDescriptionSearch.top_k` with the
  optimistic-bound pruning must return exactly the exhaustive ranking's
  prefix while skipping exact evaluation for part of the pool.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from ..core.best_describe import BestDescriptionSearch
from ..core.explainer import OntologyExplainer
from ..core.labeling import Labeling
from ..core.matching import MatchEvaluator
from ..obdm.system import OBDMSystem
from ..ontologies.compas import build_compas_specification
from ..ontologies.loans import build_loan_specification
from ..ontologies.movies import build_movie_specification
from ..ontologies.university import (
    build_university_database,
    build_university_specification,
)
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from ..workloads.compas_gen import CompasWorkloadConfig, generate_compas_workload
from ..workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from ..workloads.movies_gen import MovieWorkloadConfig, generate_movie_workload
from .scalability import build_loan_pool
from .tables import ExperimentResult


def _probe_database(domain: str):
    if domain == "university":
        return build_university_database()
    if domain == "compas":
        return generate_compas_workload(CompasWorkloadConfig(persons=12, seed=11)).database
    if domain == "loans":
        return generate_loan_workload(LoanWorkloadConfig(applicants=12, seed=7)).database
    if domain == "movies":
        return generate_movie_workload(
            MovieWorkloadConfig(movies=8, directors=3, viewers=5, critics=2, seed=3)
        ).database
    raise KeyError(f"unknown probe domain {domain!r}; available: {PROBE_DOMAINS}")


PROBE_SPECIFICATIONS = {
    "university": build_university_specification,
    "compas": build_compas_specification,
    "loans": build_loan_specification,
    "movies": build_movie_specification,
}

PROBE_DOMAINS = tuple(sorted(PROBE_SPECIFICATIONS))


def build_probe_system(
    domain: str, cache: bool = True, strategy=None, verdicts: bool = True
) -> OBDMSystem:
    """A small deterministic system for one domain, with engine switches.

    The single definition of the per-domain probe workloads behind both
    the E12 identity sweep and the differential suites — they must
    validate the *same* systems and pools, never drifting copies.
    ``verdicts=False`` selects the per-pair Definition 3.4 oracle
    (``engine.verdicts.enabled = False``), the reference the default
    verdict-row path is compared against.
    """
    specification = PROBE_SPECIFICATIONS[domain]()
    if strategy is not None:
        specification = specification.with_strategy(strategy)
    specification.engine.cache.enabled = cache
    specification.engine.verdicts.enabled = verdicts
    return OBDMSystem(specification, _probe_database(domain), name=f"{domain}_probe")


def oracle_row(evaluator: MatchEvaluator, columns, query) -> int:
    """The per-pair Definition 3.4 verdict row of *query* over *columns*.

    Bit ``i`` is ``matches_border(query, columns.borders[i])``: one
    certain-answer question per border, the reference the verdict-row
    engine is checked against bit for bit.
    """
    row = 0
    for bit, border in enumerate(columns.borders):
        if evaluator.matches_border(query, border):
            row |= 1 << bit
    return row


def probe_labeling(system: OBDMSystem) -> Labeling:
    constants = sorted(system.domain(), key=repr)[:6]
    return Labeling(positives=constants[:3], negatives=constants[3:6], name="probe")


def probe_labelings(system: OBDMSystem, count: int = 2) -> List[Labeling]:
    """*count* overlapping labelings (shifted six-constant windows).

    Window ``i`` starts at constant ``i``, so consecutive labelings
    share five of their six tuples — the shape that makes the
    multi-labeling batch kernel's shared-border merging observable
    (E13 and the batch differential suite both probe with these).
    """
    constants = sorted(system.domain(), key=repr)
    labelings = []
    for index in range(count):
        window = constants[index : index + 6]
        if len(window) < 6:
            break
        labelings.append(
            Labeling(positives=window[:3], negatives=window[3:6], name=f"probe{index}")
        )
    return labelings


def probe_pool(system: OBDMSystem) -> List:
    """Concept/role CQs, a two-atom join and a UCQ, per domain."""
    ontology = system.ontology
    concepts = sorted(ontology.concept_names)[:3]
    roles = sorted(ontology.role_names)[:2]
    pool: List = [
        ConjunctiveQuery.of(("?x",), (Atom.of(concept, "?x"),), name=f"q_{concept}")
        for concept in concepts
    ]
    pool.extend(
        ConjunctiveQuery.of(("?x",), (Atom.of(role, "?x", "?y"),), name=f"q_{role}")
        for role in roles
    )
    if len(concepts) >= 2 and roles:
        pool.append(
            ConjunctiveQuery.of(
                ("?x",),
                (Atom.of(concepts[0], "?x"), Atom.of(roles[0], "?x", "?y")),
                name="q_conj",
            )
        )
        pool.append(UnionOfConjunctiveQueries.of((pool[0], pool[1]), name="q_union"))
    return pool


def run_match_kernel(
    applicants: int = 48,
    candidate_pool: int = 36,
    labeled_per_side: int = 20,
    rounds: int = 3,
    top_k: int = 5,
    seed: int = 7,
    workload=None,
) -> ExperimentResult:
    """E12: one-pass kernel rows vs per-pair oracle rows.

    *workload* accepts a prebuilt
    :class:`~repro.experiments.scalability.LoanScoringPool` (the bench
    passes the ``bench_pool`` fixture's result) so callers that already
    built the workload do not pay database + pool construction twice.
    Reported sizes are always derived from the actual workload, never
    from the size arguments, so a mismatched *workload* cannot make the
    table (or the bench gates reading it) overstate the coverage.
    """
    if workload is None:
        workload = build_loan_pool(applicants, candidate_pool, labeled_per_side, seed=seed)
    database, labeling, pool = workload.database, workload.labelings[0], workload.pool
    labeled_per_side = len(labeling.positives)

    # -- matrix build vs oracle rows, warm retrieval on both sides ---------
    def build_seconds(kernel: bool) -> Tuple[float, List[int]]:
        from ..engine.verdicts import BorderColumns, VerdictMatrix

        total = 0.0
        rows: List[int] = []
        for _ in range(rounds):
            system = OBDMSystem(build_loan_specification(), database, name="loan_kernel_e12")
            evaluator = MatchEvaluator(system, 1)
            columns = BorderColumns.from_labeling(evaluator, labeling)
            evaluator.border_aboxes(columns.borders)  # warm the shared retrieval layer
            start = time.perf_counter()
            if kernel:
                matrix = VerdictMatrix(evaluator, columns)
                matrix.build(pool)
                total += time.perf_counter() - start
                rows = [matrix.row(query) for query in pool]
            else:
                rows = [oracle_row(evaluator, columns, query) for query in pool]
                total += time.perf_counter() - start
        return total, rows

    kernel_seconds, kernel_rows = build_seconds(kernel=True)
    legacy_seconds, legacy_rows = build_seconds(kernel=False)
    identical_rows = kernel_rows == legacy_rows

    result = ExperimentResult(
        "E12",
        "Match kernel: one-pass verdict rows vs the per-pair oracle",
        notes=(
            f"loan domain, |D|={len(database)} facts, {len(pool)} candidates × "
            f"{2 * labeled_per_side} borders, retrieval warmed on both paths"
        ),
    )
    result.add_row(
        mode="matrix_build",
        candidates=len(pool),
        borders=2 * labeled_per_side,
        rounds=rounds,
        legacy_seconds=round(legacy_seconds, 3),
        kernel_seconds=round(kernel_seconds, 3),
        speedup=round(legacy_seconds / kernel_seconds, 1) if kernel_seconds > 0 else None,
        identical=identical_rows,
        cells=None,
    )

    # -- identity: 4 domains × {CQ, UCQ} × {thread, process} ---------------
    identical_cells = True
    cells = 0
    for domain in PROBE_DOMAINS:
        reference_system = build_probe_system(domain, verdicts=False)
        domain_labeling = probe_labeling(reference_system)
        domain_pool = probe_pool(reference_system)
        reference = OntologyExplainer(reference_system).explain(
            domain_labeling, candidates=domain_pool, top_k=None
        )
        for executor in ("thread", "process"):
            kernel_system = build_probe_system(domain)
            reports = OntologyExplainer(kernel_system).explain_batch(
                [domain_labeling],
                candidates=domain_pool,
                executor=executor,
                max_workers=2,
                top_k=None,
            )
            cells += 1
            if reports[0].render(top_k=None) != reference.render(top_k=None):
                identical_cells = False
    result.add_row(
        mode="identity",
        candidates=None,
        borders=None,
        rounds=1,
        legacy_seconds=None,
        kernel_seconds=None,
        speedup=None,
        identical=identical_cells,
        cells=cells,
    )

    # -- top-k bound pruning: exact prefix, fewer exact evaluations --------
    # Separate specifications so the pruned run cannot see the exhaustive
    # run's shared verdict rows (rows_built then reports real skips).
    exhaustive_system = OBDMSystem(
        build_loan_specification(), database, name="loan_topk_e12"
    )
    exhaustive = BestDescriptionSearch(exhaustive_system, labeling).rank(pool)[:top_k]
    pruned_system = OBDMSystem(
        build_loan_specification(), database, name="loan_topk_e12"
    )
    pruned_search = BestDescriptionSearch(pruned_system, labeling)
    pruned = pruned_search.top_k(pool, top_k)
    evaluated = pruned_search.scorer.verdict_matrix().known_rows()
    result.add_row(
        mode="top_k_pruning",
        candidates=len(pool),
        borders=2 * labeled_per_side,
        rounds=1,
        legacy_seconds=None,
        kernel_seconds=None,
        speedup=None,
        identical=(
            [(str(entry.query), entry.score) for entry in pruned]
            == [(str(entry.query), entry.score) for entry in exhaustive]
        ),
        cells=None,
        k=top_k,
        rows_built=evaluated,
    )
    return result
