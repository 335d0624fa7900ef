"""``repro.engine`` — the shared evaluation cache and the verdict-row engine.

Why this package exists
-----------------------

The explanation framework (Definition 3.7 of the paper) is a search: it
scores tens to thousands of candidate queries, and every score is a
J-matching profile (Definition 3.4) computed against the *same* borders
and the *same* virtual ABoxes.  The seed implementation rebuilt the
expensive intermediates on every call — most painfully, the chase
strategy re-saturated the ABox on every single ``is_certain_answer``
check.  This package centralises that repeated work behind two
components:

:class:`~repro.engine.cache.EvaluationCache`
    A content-addressed memo shared by every evaluator working against
    one OBDM specification.  It caches (1) saturated chase indexes per
    ABox fact set, (2) perfect rewritings per canonical query signature,
    (3) retrieved border ABoxes per border atom set, (4) J-match
    verdicts per query signature × border, both per pair for the oracle
    and column-major for the verdict-row engine (the
    :class:`~repro.engine.cache.VerdictStore`), and (5) each border's
    generated candidate queries per generation shape (the candidate
    table, ``CacheStats.candidate_hits/misses``).  Keys are frozen
    *values*, never object identities, so shared use across labelings,
    evaluators and worker threads is safe by construction.  Every
    :class:`~repro.obdm.certain_answers.CertainAnswerEngine` owns one
    (``specification.engine.cache``) and the J-matching layer
    (:class:`~repro.core.matching.MatchEvaluator`) consults it.

:class:`~repro.engine.cache.DerivationTable`
    The memo layer *under* the border ABoxes, in the spirit of tabled
    logic programming's answer tables.  For the current database
    content (keyed by its fingerprint) it holds every mapping
    derivation over the source facts covered so far, each with its
    *witness* — the source facts the derivation read.  Mappings are
    monotone, so a border's retrieved ABox is exactly the facts with a
    witness inside the border.  Each derived fact is filed with its
    integer encoding (:class:`~repro.engine.cache.ConstantInterner`, one
    per cache).  One provenance pass
    (``DerivationTable.provenance``) decides this for a whole batch of
    borders at once, as a border bitset per encoded fact: the match
    kernel builds its index from that map (``MatchEvaluator.border_provenance``)
    and ``MatchEvaluator.border_aboxes`` projects it to per-border
    ABoxes for the oracle, candidate generation, refinement and
    separability.  Either costs at most one witnessed mapping pass over
    the facts the table does not cover yet, and none at all when it
    covers them (a warm drift).  ``CacheStats.mapping_passes`` /
    ``mapping_facts_read`` count that work.

:class:`~repro.engine.verdicts.VerdictMatrix`
    The bitset verdict engine of the criteria layer.  For one labeling
    it lays the border individuals out as **columns** (positives first,
    then negatives, each sorted deterministically —
    :class:`~repro.engine.verdicts.BorderColumns`) and stores, per
    candidate query, one int-backed bitset **row** whose bit ``i`` says
    whether the query J-matches border ``i``.  UCQ rows are the OR of
    their disjuncts' rows.  Rows are a gather over the verdict store's
    border columns — a verdict depends only on (query, border), so a
    border any earlier labeling evaluated is never re-matched, and only
    the cells nobody has evaluated go through the kernel
    (``CacheStats.verdict_cells_evaluated/reused``).  The matrix keeps
    its rows privately, so re-ranking a pool under another (Δ, Z)
    configuration never touches the store again.
    :class:`~repro.engine.verdicts.BitsetVerdictProfile`
    exposes the ``MatchProfile`` interface over a row — the criteria
    δ1–δ4 become popcount arithmetic.

:class:`~repro.engine.kernel.PoolMatchKernel`
    The pool-level match kernel behind verdict-row *construction*.
    Where the per-pair oracle asks one certain-answer question per
    (candidate, border) cell — O(|pool| × |borders|) independent
    rewriting + homomorphism searches — the kernel holds the retrieved
    facts of all borders in one :class:`~repro.engine.kernel.UnifiedBorderIndex`
    (a columnar store of ints: predicate → integer argument rows + a
    provenance bitset per fact, each constant replaced by its id under
    the cache's :class:`~repro.engine.cache.ConstantInterner`; read
    straight off the derivation table, which encoded every fact once,
    under the rewriting strategy, and merged from encoded per-border
    saturations under the chase) and computes a candidate's **whole
    row in one homomorphism enumeration**: a set-at-a-time hash join
    on integer tuples ANDs provenance bitsets along join paths, and
    each final binding's head projection emits its mask into the row.
    Partial-match states of canonical atom prefixes are **tabled** in
    the shared cache (:meth:`EvaluationCache.subquery_tables`,
    ``CacheStats.subquery_hits/misses``), keyed by the prefixes'
    encodings, so candidates of the bottom-up lattice that share a
    prefix pay for it once.

:class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`
    The bit-sliced **multi-labeling batch kernel**, the single way
    verdict cells are evaluated: it merges the borders of many column
    layouts (each a fill's borders missing a cell) into one
    deduplicated global layout, runs a single
    :class:`~repro.engine.kernel.PoolMatchKernel` over it, and slices
    each labeling's rows out of the global rows with a vectorized bit
    gather — one homomorphism enumeration per candidate for the *whole
    batch*.  A lone ``VerdictMatrix`` is a batch of one.  Rows live in
    a 2-D numpy ``uint64`` bit matrix and the δ1–δ4 confusion counts
    of every candidate come from two masked-popcount passes
    (:func:`~repro.engine.batch_kernel.masked_popcounts`) instead of
    per-row ``int.bit_count``.
    :meth:`~repro.engine.verdicts.VerdictMatrix.build_batch` fills many
    matrices in one dispatch
    (:meth:`~repro.core.explainer.OntologyExplainer.explain_batch` and
    :meth:`~repro.service.ExplanationService.warm_start`).

**The Definition 3.4 oracle.**  ``specification.engine.verdicts.enabled
= False`` (:class:`~repro.engine.cache.VerdictPolicy`) scores through
``MatchEvaluator.profile`` → ``matches_border`` instead: one
certain-answer question per (query, border) pair, memoized in the
J-match layer.  It is the reference every production path is checked
against — ``tests/service/test_oracle_differential.py`` serves cold,
warm, labeling-drift, database-delta and ``warm_start`` requests
through a default service over all four domains and compares every
render with an oracle system.

**Fact-level database drift.**  A
:class:`~repro.obdm.database.DatabaseDelta` (added/removed facts) is
applied in place by ``SourceDatabase.apply_delta`` — which also
maintains an order-independent XOR content fingerprint — and then
propagates incrementally:
:meth:`~repro.core.border.BorderComputer.apply_delta` evicts only the
cached borders whose constant reach the delta intersects;
:meth:`~repro.engine.cache.EvaluationCache.invalidate_borders` drops
exactly the memo entries built over those borders (counted in
``CacheStats.delta_invalidations``); and
:meth:`~repro.engine.verdicts.VerdictMatrix.apply_database_delta`
refills many matrices through the fill path new labelings and labeling
drift share: surviving borders are gathered from the verdict store and
the changed ones are evaluated in one batch dispatch per system and
radius.  :meth:`~repro.service.ExplanationService.apply_delta` hands it
every session at once, and service snapshots are stamped with the
database fingerprint so a post-drift ``load()`` is refused.

**Storage backends.**  The source database delegates storage to a
:class:`~repro.obdm.backend.StorageBackend` — the in-memory default or
``SQLiteBackend``, which keeps facts in an indexed SQLite store and
compiles CQ/SQL/algebra mapping sources to single pushed-down SQL
statements (:meth:`~repro.obdm.database.SourceDatabase.execute_pushdown`).
The backend is a deployment choice, not an engine switch: every engine
layer behaves identically over either (suite
``tests/obdm/test_backends.py``, marker ``backend``; experiment ``E16``).

Quickstart::

    from repro.core import Labeling, OntologyExplainer
    from repro.ontologies.university import build_university_system

    system = build_university_system()
    explainer = OntologyExplainer(system)
    reports = explainer.explain_batch(
        [lambda_a, lambda_b],                 # many labelings, one verdict fill
        candidates=["q(x) :- studies(x, 'Math')", ...],
    )

Benchmarks and checks: ``e2ebench/`` measures ``ExplanationService.explain``
end to end in the default configuration, layer by layer.  The
Definition 3.4 per-pair oracle (``VerdictPolicy.enabled = False``) is
the reference: the differential suites
(``tests/service/test_oracle_differential.py`` and the kernel, verdict
and delta suites) check every production path against it for
byte-identical rankings, and pin the engine's work with exact counters.
"""

from __future__ import annotations

from .cache import CacheLimits, CacheStats, EvaluationCache, LRUStore, VerdictPolicy, VerdictStore
from .kernel import PoolMatchKernel, UnifiedBorderIndex

__all__ = [
    "BitsetVerdictProfile",
    "BorderColumns",
    "CacheLimits",
    "CacheStats",
    "EvaluationCache",
    "LRUStore",
    "MultiLabelingBatchKernel",
    "PoolMatchKernel",
    "UnifiedBorderIndex",
    "VerdictMatrix",
    "VerdictPolicy",
    "VerdictStore",
]

_LAZY_MODULES = {
    # These are exposed lazily: importing repro.engine.verdicts pulls in
    # repro.core, which itself imports repro.obdm.certain_answers →
    # repro.engine.cache; loading them eagerly here would close that
    # loop during package initialisation.
    # (repro.engine.kernel only imports repro.queries and .cache, so it
    # loads eagerly above.)
    "BitsetVerdictProfile": "verdicts",
    "BorderColumns": "verdicts",
    "MultiLabelingBatchKernel": "batch_kernel",
    "VerdictMatrix": "verdicts",
}


def __getattr__(name: str):
    module_name = _LAZY_MODULES.get(name)
    if module_name is not None:
        from importlib import import_module

        return getattr(import_module(f".{module_name}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
