"""Differential suite for the bit-sliced multi-labeling batch kernel.

Pins three contracts of :mod:`repro.engine.batch_kernel`:

* **bit-exactness** — packing Python-int bitset rows into uint64 word
  matrices, slicing layouts out of global rows and counting δ-masks with
  vectorized popcounts reproduces ``int.bit_count`` arithmetic bit for
  bit;
* **batch = per-layout = oracle** — rankings served through one
  multi-layout batch dispatch are byte-identical to per-layout builds
  and to the per-pair Definition 3.4 oracle, across all four domain
  ontologies × {thread, process} executors, and rows stay exact over a
  mapping whose facts have multi-fact witnesses (join and algebra
  sources);
* **search = exhaustive prefix** — ``search(top_k=...)`` returns the
  exhaustive ranking's prefix for every strategy, and the bottom-up
  cutoff accounting (truncated / unexplored_seeds / exhausted) is
  deterministic and honest.
"""

from __future__ import annotations

import pytest

from repro.core.best_describe import BestDescriptionSearch
from repro.core.candidates import CandidateConfig, CandidateGenerator
from repro.core.explainer import OntologyExplainer
from repro.core.matching import MatchEvaluator
from repro.engine.batch_kernel import (
    MultiLabelingBatchKernel,
    masked_popcounts,
    pack_bit_matrix,
    pack_rows,
    unpack_bits,
)
from repro.engine.kernel import PoolMatchKernel
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.errors import ExplanationError
from repro.workloads.probes import (
    PROBE_DOMAINS,
    build_join_system,
    build_probe_system,
    oracle_row,
    probe_labeling,
    probe_labelings,
    probe_pool,
)

pytestmark = pytest.mark.kernel

DOMAINS = PROBE_DOMAINS


# -- bit arithmetic -----------------------------------------------------------


ROWS = [0, 1, (1 << 63) | 1, (1 << 64) - 1, (1 << 100) + (1 << 64) + 5, 1 << 129]


class TestBitSlicing:
    def test_pack_unpack_round_trip(self):
        width = 130
        words = pack_rows(ROWS, width)
        assert words.shape == (len(ROWS), 3)
        bits = unpack_bits(words, width)
        _, ints = pack_bit_matrix(bits)
        assert ints == ROWS

    def test_unpacked_bits_match_int_bits(self):
        width = 130
        bits = unpack_bits(pack_rows(ROWS, width), width)
        for position, row in enumerate(ROWS):
            for bit in range(width):
                assert int(bits[position, bit]) == (row >> bit) & 1

    def test_masked_popcounts_match_bit_count(self):
        width = 130
        words = pack_rows(ROWS, width)
        for mask in (0, 5, (1 << 64) | 3, (1 << width) - 1):
            counts = masked_popcounts(words, mask, width)
            assert [int(count) for count in counts] == [
                (row & mask).bit_count() for row in ROWS
            ]

    def test_zero_width_matrix(self):
        words = pack_rows([0, 0], 0)
        bits = unpack_bits(words, 0)
        assert bits.shape == (2, 0)
        _, ints = pack_bit_matrix(bits)
        assert ints == [0, 0]


# -- batch kernel rows vs per-layout kernel and oracle -------------------------


@pytest.mark.parametrize("domain", DOMAINS)
def test_single_layout_rows_equal_kernel_rows(domain):
    """A one-layout batch emits exactly a per-layout kernel's (and the oracle's) rows."""
    system = build_probe_system(domain)
    labeling = probe_labeling(system)
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, labeling)
    batch = MultiLabelingBatchKernel(evaluator, [columns])
    pool = probe_pool(system)
    [rows] = batch.rows_for([pool])
    kernel = PoolMatchKernel(evaluator, columns)
    for query, row in zip(pool, rows):
        assert row == kernel.row(query) == oracle_row(evaluator, columns, query)


@pytest.mark.parametrize("domain", DOMAINS)
def test_multi_layout_rows_equal_per_labeling_builds(domain):
    """Overlapping layouts sliced from one dispatch match separate builds."""
    system = build_probe_system(domain)
    labelings = probe_labelings(system, count=3)
    evaluator = MatchEvaluator(system, radius=1)
    layouts = [BorderColumns.from_labeling(evaluator, lab) for lab in labelings]
    batch = MultiLabelingBatchKernel(evaluator, layouts)
    assert batch.shared_columns() > 0, (
        f"{domain}: shifted-window labelings should share borders"
    )
    pool = probe_pool(system)
    results = batch.rows_for([pool] * len(layouts))
    for columns, rows in zip(layouts, results):
        reference = VerdictMatrix(
            MatchEvaluator(build_probe_system(domain), radius=1), columns
        )
        reference.build(pool)
        assert rows == [reference.row(query) for query in pool]


def test_per_layout_pools_may_differ():
    system = build_probe_system("university")
    labelings = probe_labelings(system, count=2)
    evaluator = MatchEvaluator(system, radius=1)
    layouts = [BorderColumns.from_labeling(evaluator, lab) for lab in labelings]
    batch = MultiLabelingBatchKernel(evaluator, layouts)
    pool = probe_pool(system)
    first, second = batch.rows_for([pool[:2], pool[2:]])
    assert len(first) == 2
    assert len(second) == len(pool) - 2
    assert first == [batch.row_for(0, query) for query in pool[:2]]
    assert second == [batch.row_for(1, query) for query in pool[2:]]


def test_pool_count_mismatch_rejected():
    system = build_probe_system("university")
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, probe_labeling(system))
    batch = MultiLabelingBatchKernel(evaluator, [columns])
    with pytest.raises(ExplanationError):
        batch.rows_for([[], []])


def test_batch_dispatch_counters():
    system = build_probe_system("university")
    evaluator = MatchEvaluator(system, radius=1)
    columns = BorderColumns.from_labeling(evaluator, probe_labeling(system))
    batch = MultiLabelingBatchKernel(evaluator, [columns])
    pool = probe_pool(system)
    stats = system.specification.engine.cache.stats
    before = stats.as_dict()
    batch.rows_for([pool])
    delta = stats.delta_since(before)
    assert delta.get("batch_dispatches") == 1
    assert delta.get("batch_rows") == len(pool)


def _restricted_row(system, columns, query) -> int:
    """Definition 3.4 read literally, with no derivation table: certain
    answers over each border's own sub-database."""
    row = 0
    for bit, border in enumerate(columns.borders):
        if query.arity == len(border.tuple) and system.specification.is_certain_answer(
            query, border.tuple, system.database.restrict_to(border.atoms)
        ):
            row |= 1 << bit
    return row


@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_non_local_mapping_rows_equal_per_pair(backend):
    """Join and algebra mapping sources: facts with multi-fact witnesses.

    A fact is in a border's column only if one whole witness lies inside
    the border (radius 0 cuts most joins in half), so kernel and
    batch-kernel rows equal the oracle's only if the index ANDs the
    witness facts' border masks.
    """
    system = build_join_system(backend)
    oracle = build_join_system(backend, verdicts=False)
    labelings = probe_labelings(system, count=5)
    assert len(labelings) == 5
    config = CandidateConfig(max_atoms=2, max_candidates=300)
    pool = {str(query): query for query in probe_pool(system)}
    for labeling in labelings:
        report = OntologyExplainer(system).explain(
            labeling, candidate_config=config, top_k=None
        )
        reference = OntologyExplainer(oracle).explain(
            labeling, candidate_config=config, top_k=None
        )
        assert report.render(top_k=None) == reference.render(top_k=None), labeling.name
        pool.update((str(entry.query), entry.query) for entry in report.explanations)
    pool = list(pool.values())
    for radius in (0, 1):
        evaluator = MatchEvaluator(system, radius=radius)
        checker = MatchEvaluator(oracle, radius=radius)
        layouts = [BorderColumns.from_labeling(evaluator, labeling) for labeling in labelings]
        results = MultiLabelingBatchKernel(evaluator, layouts).rows_for([pool] * len(layouts))
        for columns, rows in zip(layouts, results):
            kernel = PoolMatchKernel(evaluator, columns)
            for query, row in zip(pool, rows):
                assert row == kernel.row(query) == oracle_row(checker, columns, query), (
                    f"radius {radius}: {query}"
                )
                assert row == _restricted_row(oracle, columns, query), f"radius {radius}: {query}"
        assert any(any(rows) for rows in results)


# -- end-to-end differential: batch = oracle -----------------------------------


def _reference_reports(domain):
    system = build_probe_system(domain, verdicts=False)
    pool = probe_pool(system)
    return [
        OntologyExplainer(system).explain(labeling, candidates=pool, top_k=None)
        for labeling in probe_labelings(system, count=2)
    ]


@pytest.mark.parametrize("domain", DOMAINS)
def test_batched_explain_identical_to_legacy_thread(domain):
    """Thread-path explain_batch (one bit-sliced dispatch) vs the oracle."""
    references = _reference_reports(domain)
    system = build_probe_system(domain)
    reports = OntologyExplainer(system).explain_batch(
        probe_labelings(system, count=2),
        candidates=probe_pool(system),
        executor="thread",
        max_workers=2,
        top_k=None,
    )
    for report, reference in zip(reports, references):
        assert report.render(top_k=None) == reference.render(top_k=None), (
            f"{domain}: batched thread report diverged from the per-pair oracle"
        )


@pytest.mark.slow
@pytest.mark.parametrize("domain", DOMAINS)
def test_batched_explain_identical_to_legacy_process(domain):
    """Process-sharded explain_batch (workers use the batch path) vs the oracle."""
    references = _reference_reports(domain)
    system = build_probe_system(domain)
    reports = OntologyExplainer(system).explain_batch(
        probe_labelings(system, count=2),
        candidates=probe_pool(system),
        executor="process",
        max_workers=2,
        top_k=None,
    )
    for report, reference in zip(reports, references):
        assert report.render(top_k=None) == reference.render(top_k=None), (
            f"{domain}: batched process report diverged from the per-pair oracle"
        )


# -- search(top_k=...) ---------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("strategy", ("enumerate", "refine", "both"))
def test_pruned_search_equals_exhaustive_top_k(domain, strategy):
    """search(top_k=...) == the exhaustive prefix."""
    system = build_probe_system(domain)
    search = BestDescriptionSearch(system, probe_labeling(system))
    config = CandidateConfig(max_atoms=2, max_candidates=400)
    pruned = search.search(strategy=strategy, candidate_config=config, top_k=5)
    exhaustive_search = BestDescriptionSearch(
        build_probe_system(domain), probe_labeling(system)
    )
    exhaustive = exhaustive_search.search(strategy=strategy, candidate_config=config)[:5]
    assert [(str(entry.query), entry.score) for entry in pruned] == [
        (str(entry.query), entry.score) for entry in exhaustive
    ], f"{domain}/{strategy}: pruned top-k diverged from the exhaustive prefix"


# -- bottom-up cutoff accounting ----------------------------------------------


class TestCutoffAccounting:
    def _generator(self, system, max_candidates):
        return CandidateGenerator(
            system,
            radius=1,
            config=CandidateConfig(max_atoms=2, max_candidates=max_candidates),
        )

    def test_truncation_is_deterministic_and_a_prefix(self):
        system = build_probe_system("university")
        labeling = probe_labeling(system)
        full = self._generator(system, 10_000).generate(labeling)
        assert full.exhausted
        assert full.generated == len(full)
        assert full.truncated == 0 and full.unexplored_seeds == 0
        cap = max(2, len(full) // 2)
        truncated = self._generator(system, cap).generate(labeling)
        assert len(truncated) == cap
        assert [str(q) for q in truncated] == [str(q) for q in full[:cap]]
        assert not truncated.exhausted
        assert truncated.truncated + truncated.unexplored_seeds > 0
        again = self._generator(system, cap).generate(labeling)
        assert [str(q) for q in again] == [str(q) for q in truncated]

    def test_search_pool_surfaces_accounting(self):
        system = build_probe_system("university")
        search = BestDescriptionSearch(system, probe_labeling(system))
        pool = search.candidate_pool(
            "enumerate", CandidateConfig(max_atoms=2, max_candidates=5)
        )
        assert len(pool) <= 5
        assert pool.generated >= len(pool)
        assert not pool.exhausted
