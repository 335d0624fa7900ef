"""Experiment E13: bit-sliced multi-labeling batching + generator pruning.

The pool-level kernel (E12) collapses verdict-row construction for one
column layout into a single set-at-a-time pass.  The batch kernel
(:mod:`repro.engine.batch_kernel`) extends that along the remaining
axis: one :class:`~repro.engine.kernel.UnifiedBorderIndex` built over
the *union* of many labelings' borders serves every column layout at
once, and each layout's rows fall out as bit slices of the global rows
(stored as a 2-D numpy ``uint64`` matrix, counted with vectorised
popcounts).  The second half of the tentpole feeds the kernel's
per-atom provenance supports back into candidate *generation*:
conjunctions whose AND-of-supports bound is empty are discarded before
a query object is even materialised.

Three rows:

* ``batch_dispatch`` — L overlapping loan labelings × one candidate
  pool: one :meth:`VerdictMatrix.build_batch` dispatch (union index,
  sliced rows) vs one :meth:`VerdictMatrix.build` per labeling,
  retrieval warmed on both sides, rows byte-identical.  The work is
  counted exactly: the batch makes one dispatch evaluating
  ``|pool| × |distinct borders|`` (query, border) cells, and the
  sequential builds evaluate the same total, no cell twice, because the
  verdict store hands each build the borders an earlier one evaluated.
  ``benchmarks/bench_batch_labelings.py`` gates those counts; the
  wall-clock ratio is reported only.
* ``identity`` — :meth:`OntologyExplainer.explain_batch` (whose thread
  path pre-builds all verdict matrices through one batch dispatch)
  across **all four domain ontologies** × {thread, process} executors
  over two overlapping labelings each, against per-labeling reports of
  the per-pair oracle: every rendered report must be byte-identical.
* ``generator_pruning`` — top-down refinement search with the
  provenance pruner vs without, per domain: identical top-k rankings
  while ``pruned`` of ``checked`` refinements were discarded from their
  provenance bound alone (no J-match, no profile evaluation).
  Bottom-up enumeration is deliberately *not* the vehicle here: every
  abstracted body comes from one seed border's facts, so that border
  itself supports every atom and the AND-of-supports is never empty —
  the refinement lattice (add-atom / bind-constant / specialise
  combinations untethered from any single border) is where zero-support
  conjunctions actually arise.
"""

from __future__ import annotations

import time
from typing import List

from ..core.best_describe import BestDescriptionSearch
from ..core.explainer import OntologyExplainer
from ..core.matching import MatchEvaluator
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_specification
from .kernel_exp import (
    PROBE_DOMAINS,
    build_probe_system,
    probe_labeling,
    probe_labelings,
    probe_pool,
)
from .scalability import build_loan_pool
from .tables import ExperimentResult


def run_batch_labelings(
    applicants: int = 48,
    candidate_pool: int = 36,
    labeled_per_side: int = 14,
    labelings: int = 6,
    rounds: int = 3,
    top_k: int = 5,
    seed: int = 7,
    workload=None,
) -> ExperimentResult:
    """E13: one bit-sliced dispatch for L labelings vs L matrix builds.

    *workload* accepts a prebuilt
    :class:`~repro.experiments.scalability.LoanScoringPool` with
    ``labelings`` layouts (the bench passes its fixture's result).
    Reported sizes are derived from the actual workload.
    """
    if workload is None:
        workload = build_loan_pool(
            applicants, candidate_pool, labeled_per_side, labelings=labelings, seed=seed
        )
    database, pool = workload.database, workload.pool
    layouts = workload.labelings

    # -- batch dispatch: one union-index pass vs one build per labeling ----
    def build_seconds(batch: bool):
        """Seconds over all rounds, then the last round's rows, its
        (dispatches, cells evaluated) and its distinct border count."""
        from ..engine.verdicts import BorderColumns, VerdictMatrix

        total = 0.0
        rows: List[List[int]] = []
        work = (0, 0)
        for _ in range(rounds):
            system = OBDMSystem(build_loan_specification(), database, name="loan_batch_e13")
            evaluator = MatchEvaluator(system, 1)
            layout_columns = [
                BorderColumns.from_labeling(evaluator, labeling) for labeling in layouts
            ]
            evaluator.border_aboxes(  # warm shared retrieval
                [border for columns in layout_columns for border in columns.borders]
            )
            matrices = [VerdictMatrix(evaluator, columns) for columns in layout_columns]
            stats = system.specification.engine.cache.stats
            before = stats.as_dict()
            start = time.perf_counter()
            if batch:
                VerdictMatrix.build_batch(matrices, [pool] * len(matrices))
            else:
                for matrix in matrices:
                    matrix.build(pool)
            total += time.perf_counter() - start
            spent = stats.delta_since(before)
            work = (spent["batch_dispatches"], spent["verdict_cells_evaluated"])
            rows = [[matrix.row(query) for query in pool] for matrix in matrices]
            distinct = {border for columns in layout_columns for border in columns.borders}
        return total, rows, work, len(distinct)

    batch_seconds, batch_rows, batch_work, distinct_borders = build_seconds(batch=True)
    legacy_seconds, legacy_rows, legacy_work, _ = build_seconds(batch=False)

    result = ExperimentResult(
        "E13",
        "Batch kernel: bit-sliced multi-labeling rows + generator pruning",
        notes=(
            f"loan domain, |D|={len(database)} facts, {len(pool)} candidates × "
            f"{len(layouts)} overlapping labelings"
        ),
    )
    result.add_row(
        mode="batch_dispatch",
        labelings=len(layouts),
        candidates=len(pool),
        rounds=rounds,
        legacy_seconds=round(legacy_seconds, 3),
        batch_seconds=round(batch_seconds, 3),
        speedup=round(legacy_seconds / batch_seconds, 1) if batch_seconds > 0 else None,
        identical=batch_rows == legacy_rows,
        cells=None,
        pruned=None,
        checked=None,
        batch_dispatches=batch_work[0],
        legacy_dispatches=legacy_work[0],
        batch_cells=batch_work[1],
        legacy_cells=legacy_work[1],
        expected_cells=len(pool) * distinct_borders,
    )

    # -- identity: 4 domains × {thread, process} × 2 labelings -------------
    identical_cells = True
    cells = 0
    for domain in PROBE_DOMAINS:
        reference_system = build_probe_system(domain, verdicts=False)
        domain_labelings = probe_labelings(reference_system, count=2)
        domain_pool = probe_pool(reference_system)
        references = [
            OntologyExplainer(reference_system).explain(
                labeling, candidates=domain_pool, top_k=None
            )
            for labeling in domain_labelings
        ]
        for executor in ("thread", "process"):
            batch_system = build_probe_system(domain)
            reports = OntologyExplainer(batch_system).explain_batch(
                domain_labelings,
                candidates=domain_pool,
                executor=executor,
                max_workers=2,
                top_k=None,
            )
            for report, reference in zip(reports, references):
                cells += 1
                if report.render(top_k=None) != reference.render(top_k=None):
                    identical_cells = False
    result.add_row(
        mode="identity",
        labelings=2,
        candidates=None,
        rounds=1,
        legacy_seconds=None,
        batch_seconds=None,
        speedup=None,
        identical=identical_cells,
        cells=cells,
        pruned=None,
        checked=None,
    )

    # -- generator pruning: refinement lattice, bound-only discards --------
    identical_rankings = True
    pruned_total = 0
    checked_total = 0
    for domain in PROBE_DOMAINS:
        system = build_probe_system(domain)
        labeling = probe_labeling(system)
        search = BestDescriptionSearch(system, labeling)
        exhaustive_pool = search.candidate_pool("refine")
        pruner = search.scorer.verdict_matrix().pruner()
        pruned_pool = search.candidate_pool("refine", pruner=pruner)
        pruned_total += pruner.pruned
        checked_total += pruner.checked
        exhaustive_top = search.rank(exhaustive_pool)[:top_k]
        pruned_top = search.rank(pruned_pool)[:top_k]
        if [(str(entry.query), entry.score) for entry in exhaustive_top] != [
            (str(entry.query), entry.score) for entry in pruned_top
        ]:
            identical_rankings = False
    result.add_row(
        mode="generator_pruning",
        labelings=None,
        candidates=None,
        rounds=1,
        legacy_seconds=None,
        batch_seconds=None,
        speedup=None,
        identical=identical_rankings,
        cells=len(PROBE_DOMAINS),
        pruned=pruned_total,
        checked=checked_total,
    )
    return result
