"""Experiment E16: out-of-core storage backends — SQL pushdown at scale.

The seed's :class:`~repro.obdm.database.SourceDatabase` kept every fact
in three Python dict indexes, so the heap grew linearly with ``|D|``
whether or not a request ever touched most of it.  The backend
abstraction (:mod:`repro.obdm.backend`) moves fact storage behind a
:class:`~repro.obdm.backend.StorageBackend`: the default
``MemoryBackend`` is the seed verbatim, while ``SQLiteBackend`` holds
facts in an indexed on-disk (or ``:memory:``) SQLite store, compiles
mapping source queries to single SQL statements (*pushdown*) and
streams borders out of point lookups — the Python heap never holds the
fact set.

Two rows over the banded loan domain:

* ``pushdown_identity`` — one base-size workload served through three
  stores: the memory backend, the SQLite backend with pushdown, and
  the SQLite backend with pushdown disabled (every source query falls
  back to the legacy in-memory path).  Fingerprints and served
  rankings must be byte-identical across all three, and the streaming
  :func:`populate_loan_facts` must reproduce the batch generator's
  fact set exactly (``populate_parity``).
* ``sqlite_vs_memory`` — the workload scaled ``scale``× beyond the
  base size, populated *as a stream* into each backend and served
  end-to-end.  Python-heap allocation peaks are measured per phase
  with :mod:`tracemalloc` (deterministic, unlike RSS sampling): the
  SQLite phase must stay below the memory phase's peak — its facts
  live outside the tracked heap — while producing the identical
  ranking.  ``benchmarks/bench_out_of_core.py`` gates this row at
  ``scale >= 10``.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, Tuple

from ..obdm.backend import SQLiteBackend
from ..obdm.database import SourceDatabase
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_schema, build_loan_specification
from ..service import ExplanationService
from ..workloads.generator import SeededGenerator, banded
from ..workloads.loans_gen import (
    AGE_BANDS,
    AMOUNT_BANDS,
    CITIES,
    EMPLOYMENTS,
    INCOME_BANDS,
    PURPOSES,
)
from .scalability import build_loan_pool
from .tables import ExperimentResult


def populate_loan_facts(
    database: SourceDatabase, applicants: int, seed: int = 7
) -> SourceDatabase:
    """Stream *applicants* rows of banded loan facts into *database*.

    Replicates the per-applicant draw sequence of
    :func:`~repro.workloads.loans_gen.generate_loan_workload` under its
    default noise/guarantee probabilities — including the label-noise
    draw the facts don't depend on — so for a fixed ``(applicants,
    seed)`` the produced fact set is identical to the batch
    generator's, fact for fact (``pushdown_identity`` asserts this via
    fingerprints).  Unlike the batch generator it materialises nothing:
    facts flow straight into :meth:`SourceDatabase.add` one row at a
    time, which is what lets a disk backend ingest a beyond-RAM
    workload.
    """
    generator = SeededGenerator(seed)
    for index in range(applicants):
        applicant = f"APP{index:04d}"
        loan = f"LOAN{index:04d}"
        age = generator.uniform(20, 75)
        employment = generator.choice(EMPLOYMENTS, probabilities=(0.6, 0.25, 0.15))
        base_income = {
            "salaried": 45_000,
            "self-employed": 38_000,
            "unemployed": 12_000,
        }[employment]
        income = max(5_000.0, generator.normal(base_income, 15_000))
        amount = max(1_000.0, generator.normal(30_000, 25_000))
        purpose = generator.choice(PURPOSES, probabilities=(0.45, 0.35, 0.2))
        city = generator.choice(CITIES)

        database.add(
            "APPLICANT",
            applicant,
            banded(income, INCOME_BANDS),
            employment,
            banded(age, AGE_BANDS),
        )
        database.add("LOANAPP", loan, applicant, banded(amount, AMOUNT_BANDS), purpose)
        database.add("RESIDES", applicant, city)
        if generator.boolean(0.25):
            guarantor = f"APP{generator.integer(0, max(0, applicants - 1)):04d}"
            if guarantor != applicant:
                database.add("GUARANTEE", applicant, guarantor)
        generator.boolean(0.02)  # the generator's label-noise draw
    return database


def _make_service(database: SourceDatabase, radius: int = 0) -> ExplanationService:
    system = OBDMSystem(build_loan_specification(), database, name="loan_out_of_core")
    return ExplanationService(system, radius=radius)


def run_out_of_core(
    base_applicants: int = 30,
    scale: int = 10,
    candidate_pool: int = 16,
    labeled_per_side: int = 8,
    seed: int = 7,
    radius: int = 0,
) -> ExperimentResult:
    """E16: backend identity plus the scaled heap-peak comparison.

    Served at ``radius=0``: it keeps each border an applicant's own fact
    neighbourhood, the regime indexed point lookups (and therefore
    out-of-core serving) are built for.
    """
    workload = build_loan_pool(
        base_applicants, candidate_pool, labeled_per_side, seed=seed
    )
    base, pool, labeling = workload.database, workload.pool, workload.labelings[0]

    result = ExperimentResult(
        "E16",
        "Out-of-core backends: SQL-pushdown SQLite vs the in-memory seed",
        notes=(
            f"loan domain, base |D|={len(base)} facts, scale x{scale}, "
            f"{len(pool)} candidates, radius={radius}"
        ),
    )

    # -- pushdown identity at base size ------------------------------------
    streamed = populate_loan_facts(
        SourceDatabase(build_loan_schema(), name="oc_streamed"), base_applicants, seed
    )
    stores = {
        "memory": base,
        "sqlite": base.with_backend("sqlite", name="oc_sqlite"),
        "sqlite_nopushdown": base.with_backend(
            SQLiteBackend(pushdown=False), name="oc_sqlite_nopush"
        ),
    }
    renders: Dict[str, str] = {}
    for mode, database in stores.items():
        service = _make_service(database, radius=radius)
        renders[mode] = service.explain(
            labeling, candidates=pool, top_k=None
        ).render(top_k=None)
    result.add_row(
        mode="pushdown_identity",
        applicants=base_applicants,
        facts=len(base),
        backends=len(stores),
        identical_rankings=len(set(renders.values())) == 1,
        identical_fingerprints=len(
            {database.fingerprint() for database in stores.values()}
        )
        == 1,
        populate_parity=streamed.fingerprint() == base.fingerprint(),
    )

    # -- scaled heap-peak comparison ---------------------------------------
    scaled_applicants = base_applicants * scale

    def serve_scaled(backend) -> Tuple[int, str, int]:
        # tracemalloc tracks Python-heap allocations only — exactly the
        # memory the out-of-core refactor moves off the heap — and is
        # deterministic where RSS sampling is scheduler noise.
        gc.collect()
        tracemalloc.start()
        database = populate_loan_facts(
            SourceDatabase(build_loan_schema(), name="oc_scaled", backend=backend),
            scaled_applicants,
            seed,
        )
        service = _make_service(database, radius=radius)
        render = service.explain(labeling, candidates=pool, top_k=None).render(
            top_k=None
        )
        facts = len(database)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return facts, render, peak

    # The sqlite phase runs first so neither phase measures the other's
    # leftovers; each phase gc.collect()s and restarts tracemalloc.
    scaled_facts, sqlite_render, sqlite_peak = serve_scaled("sqlite")
    _memory_facts, memory_render, memory_peak = serve_scaled(None)
    result.add_row(
        mode="sqlite_vs_memory",
        applicants=scaled_applicants,
        scale=scale,
        base_facts=len(base),
        scaled_facts=scaled_facts,
        memory_peak_bytes=memory_peak,
        sqlite_peak_bytes=sqlite_peak,
        peak_ratio=round(sqlite_peak / memory_peak, 3) if memory_peak else None,
        identical_rankings=sqlite_render == memory_render,
    )
    return result
