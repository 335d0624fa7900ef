"""Bitset verdict matrices for the criteria layer.

The best-description search needs, for every candidate query, the set of
border individuals the query J-matches (Definition 3.4).  The per-pair
oracle (``MatchEvaluator.profile``) asks one (candidate, individual)
question at a time and stores the answers as frozensets; every criterion
evaluation then re-walks those sets.  This module packs the same
information into *bit matrices*:

* **columns** — the border individuals of one labeling, positives first
  then negatives, in a deterministic order (:class:`BorderColumns`);
* **rows** — one Python int per candidate query, bit ``i`` set iff the
  query J-matches the border of column ``i`` (:class:`VerdictMatrix`);
* **profiles** — :class:`BitsetVerdictProfile` exposes the familiar
  :class:`~repro.core.matching.MatchProfile` interface on top of a row,
  computing the confusion-matrix counts with ``int.bit_count`` so the
  criteria δ1–δ4 become popcount arithmetic (δ5/δ6 were arithmetic
  already).

Rows are built by the bit-sliced batch kernel
(:class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`, a single
layout being a batch of one): all border ABoxes of the layout are merged
into one provenance-indexed fact store and a candidate's whole row comes
out of one homomorphism enumeration.  The rows are *verdict-for-verdict
identical* to the per-pair oracle — the differential suites
(``tests/engine/test_verdict_matrix.py``,
``tests/service/test_oracle_differential.py``) pin that across all four
domain ontologies.

UCQ rows are the bitwise OR of their disjuncts' rows.  That is sound
for both answering strategies: the chase path evaluates a UCQ
disjunct-by-disjunct (``UnionOfConjunctiveQueries.contains_tuple``) and
the rewriting path rewrites a UCQ into the deduplicated union of its
disjuncts' rewritings, so a UCQ J-matches a border iff some disjunct
does.  This makes the greedy union construction of
:meth:`~repro.core.best_describe.BestDescriptionSearch.best_ucq`
popcount-cheap once the CQ rows exist.

Completed rows are memoized in the specification's shared cache under
the column layout's content-addressed key
(:meth:`EvaluationCache.verdict_rows`), so scoring the same pool under
a different (Δ, Z) configuration — or from a different scorer — never
re-runs a J-match.  ``specification.engine.verdicts.enabled = False``
(:class:`~repro.engine.cache.VerdictPolicy`) bypasses this module and
scores through the per-pair oracle instead.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.border import Border
from ..core.labeling import (
    NEGATIVE,
    POSITIVE,
    ConstantTuple,
    Labeling,
    normalize_tuple,
)
from ..core.matching import MatchEvaluator, MatchProfile, MatchStatistics
from ..errors import ExplanationError
from ..obdm.certain_answers import OntologyQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries, query_key


def _sorted_tuples(raws) -> Tuple[ConstantTuple, ...]:
    return tuple(sorted({normalize_tuple(raw) for raw in raws}, key=repr))


class BorderColumns:
    """The deterministic column layout of one (labeling, radius) pair.

    Columns ``0 .. P-1`` are the positives of ``λ`` and columns
    ``P .. P+N-1`` the negatives, each sorted by ``repr`` of the
    normalized tuple, so two scorers over the same labeling always agree
    on the bit positions.  ``borders`` may be empty for synthetic
    layouts (property tests build profiles without a database); matrices
    require it to be populated.
    """

    __slots__ = (
        "positive_tuples",
        "negative_tuples",
        "borders",
        "radius",
        "_key",
    )

    def __init__(
        self,
        positive_tuples: Sequence[ConstantTuple],
        negative_tuples: Sequence[ConstantTuple],
        borders: Sequence[Border] = (),
        radius: int = 0,
    ):
        self.positive_tuples = tuple(positive_tuples)
        self.negative_tuples = tuple(negative_tuples)
        self.borders = tuple(borders)
        self.radius = radius
        self._key = None

    @staticmethod
    def from_labeling(
        evaluator: MatchEvaluator, labeling: Labeling, radius: Optional[int] = None
    ) -> "BorderColumns":
        """Columns (and their borders) for one labeling, computed once."""
        radius = evaluator.radius if radius is None else radius
        positives = _sorted_tuples(labeling.positives)
        negatives = _sorted_tuples(labeling.negatives)
        borders = [evaluator.border_of(raw, radius) for raw in positives + negatives]
        return BorderColumns(positives, negatives, borders, radius)

    @staticmethod
    def from_tuples(
        positives: Iterable, negatives: Iterable
    ) -> "BorderColumns":
        """A border-less layout (enough for building synthetic profiles)."""
        return BorderColumns(_sorted_tuples(positives), _sorted_tuples(negatives))

    # -- geometry ---------------------------------------------------------

    @property
    def tuples(self) -> Tuple[ConstantTuple, ...]:
        return self.positive_tuples + self.negative_tuples

    @property
    def positive_count(self) -> int:
        return len(self.positive_tuples)

    @property
    def negative_count(self) -> int:
        return len(self.negative_tuples)

    @property
    def width(self) -> int:
        return self.positive_count + self.negative_count

    @property
    def positives_mask(self) -> int:
        """Bits of the positive columns: ``0 .. P-1``."""
        return (1 << self.positive_count) - 1

    @property
    def negatives_mask(self) -> int:
        """Bits of the negative columns: ``P .. P+N-1``."""
        return ((1 << self.negative_count) - 1) << self.positive_count

    def key(self) -> Tuple:
        """Content-addressed cache key of this layout.

        Borders embed their tuple, radius and atom layers, so the key
        changes whenever the underlying database content (and hence any
        verdict) could change — the same addressing discipline as the
        J-match memo.
        """
        if self._key is None:
            self._key = (
                "verdict_columns",
                self.positive_count,
                self.radius,
                self.borders,
            )
        return self._key

    def __len__(self) -> int:
        return self.width

    def __str__(self):
        return (
            f"BorderColumns(+{self.positive_count}/-{self.negative_count}, "
            f"radius={self.radius})"
        )


class BitsetVerdictProfile(MatchStatistics):
    """A match profile backed by one matrix row instead of frozensets.

    All confusion-matrix counts are popcounts (``int.bit_count``) over
    the row masked by the column layout; the frozenset views of
    :class:`~repro.core.matching.MatchProfile` are materialized lazily
    and only when actually accessed (reports only render counts).
    Equality, hashing and pickling all go through the materialized
    profile, so bitset-backed and set-backed profiles of the same
    verdicts compare equal and pickle to plain ``MatchProfile`` objects
    (which is what process-sharded workers send back).
    """

    __slots__ = (
        "row",
        "columns",
        "true_positives",
        "false_negatives",
        "false_positives",
        "true_negatives",
        "_materialized",
    )

    def __init__(
        self,
        row: int,
        columns: BorderColumns,
        counts: Optional[Tuple[int, int]] = None,
    ):
        self.row = row
        self.columns = columns
        # The popcounts: every criterion evaluation reads these several
        # times, so they are computed once up front rather than per
        # property access.  The batch kernel hands them in precomputed
        # (one vectorized popcount pass covered the whole pool); only
        # without them does the profile fall back to two bit_count calls.
        if counts is None:
            self.true_positives = (row & columns.positives_mask).bit_count()
            self.false_positives = (row & columns.negatives_mask).bit_count()
        else:
            self.true_positives, self.false_positives = counts
        self.false_negatives = columns.positive_count - self.true_positives
        self.true_negatives = columns.negative_count - self.false_positives
        self._materialized: Optional[MatchProfile] = None

    # -- set views (lazy) -------------------------------------------------

    def materialize(self) -> MatchProfile:
        """The equivalent set-backed :class:`MatchProfile` (cached)."""
        if self._materialized is None:
            matched_pos: List[ConstantTuple] = []
            unmatched_pos: List[ConstantTuple] = []
            matched_neg: List[ConstantTuple] = []
            unmatched_neg: List[ConstantTuple] = []
            split = self.columns.positive_count
            for bit, value in enumerate(self.columns.tuples):
                hit = self.row >> bit & 1
                if bit < split:
                    (matched_pos if hit else unmatched_pos).append(value)
                else:
                    (matched_neg if hit else unmatched_neg).append(value)
            self._materialized = MatchProfile(
                positives_matched=frozenset(matched_pos),
                positives_unmatched=frozenset(unmatched_pos),
                negatives_matched=frozenset(matched_neg),
                negatives_unmatched=frozenset(unmatched_neg),
            )
        return self._materialized

    @property
    def positives_matched(self) -> FrozenSet[ConstantTuple]:
        return self.materialize().positives_matched

    @property
    def positives_unmatched(self) -> FrozenSet[ConstantTuple]:
        return self.materialize().positives_unmatched

    @property
    def negatives_matched(self) -> FrozenSet[ConstantTuple]:
        return self.materialize().negatives_matched

    @property
    def negatives_unmatched(self) -> FrozenSet[ConstantTuple]:
        return self.materialize().negatives_unmatched

    # -- value semantics --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, BitsetVerdictProfile):
            return self.materialize() == other.materialize()
        if isinstance(other, MatchProfile):
            return self.materialize() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.materialize())

    def __reduce__(self):
        # Pickle as the equivalent plain MatchProfile: the columns object
        # drags whole borders along and the receiver only needs the sets.
        profile = self.materialize()
        return (
            MatchProfile,
            (
                profile.positives_matched,
                profile.positives_unmatched,
                profile.negatives_matched,
                profile.negatives_unmatched,
            ),
        )


class VerdictMatrix:
    """All candidates' J-match verdicts against one labeling, as bitsets.

    Rows are dict entries keyed by
    :func:`~repro.queries.ucq.query_key`, shared through the
    specification's evaluation cache when it is enabled (see
    :meth:`EvaluationCache.verdict_rows`), private to the matrix
    otherwise.
    """

    def __init__(self, evaluator: MatchEvaluator, columns: BorderColumns):
        if len(columns.borders) != columns.width:
            raise ValueError(
                "VerdictMatrix needs fully populated border columns "
                f"({len(columns.borders)} borders for {columns.width} columns)"
            )
        self.evaluator = evaluator
        self.columns = columns
        self._cache = evaluator.system.specification.engine.cache
        self._batch = None
        # Confusion counts precomputed by the batch kernel's vectorized
        # popcount pass, keyed like the rows.  Private to this matrix
        # (rows are content-addressed and shareable; the counts are just
        # a local popcount shortcut and cheap to recompute).
        self._counts: Dict[Tuple, Tuple[int, int]] = {}
        # Computing the layout key hashes whole borders; skip it when the
        # cache would hand back a private dict anyway.
        self._rows: Dict[Tuple, int] = (
            self._cache.verdict_rows(columns.key()) if self._cache.enabled else {}
        )
        # Queries whose rows *this* matrix computed or migrated, keyed like
        # the rows.  apply_drift needs the query objects back (row keys are
        # not invertible) to evaluate fresh columns; rows contributed to the
        # shared store by other matrices are simply not migrated.
        self._known_queries: Dict[Tuple, OntologyQuery] = {}

    # -- lifecycle --------------------------------------------------------

    def is_live(self) -> bool:
        """Whether this matrix still feeds the shared row store.

        ``False`` once the cache has evicted the matrix's column layout:
        the rows dict this matrix holds is then disconnected from the
        shared store, so long-lived consumers (the explanation service's
        warm sessions) must rebuild instead of reusing the matrix.  A
        matrix built with the cache disabled owns its rows privately and
        is always live.
        """
        if not self._cache.enabled:
            return True
        return self._cache.has_verdict_layout(self.columns.key())

    def touch(self) -> None:
        """Refresh this layout's recency in the cache's eviction order.

        Warm consumers read rows through their own reference to the
        shared dict, which the LRU layer cannot observe; a long-lived
        owner (the explanation service) calls this on every warm reuse
        so the hottest layouts are the last to be evicted, not the
        first.  A no-op once the layout has been evicted (recreating it
        empty would fake liveness and waste a layout slot).
        """
        self._cache.touch_verdict_layout(self.columns.key())

    # -- row computation --------------------------------------------------

    def _batch_for(self):
        """A single-layout batch kernel over this matrix's columns.

        Persistent across ``build`` calls so its unified index and
        subquery tables stay warm; lazy single rows (UCQ extensions,
        bound probes) reuse the same kernel via bit slicing.
        """
        if self._batch is None:
            from .batch_kernel import MultiLabelingBatchKernel

            self._batch = MultiLabelingBatchKernel(self.evaluator, [self.columns])
        return self._batch

    def pruner(self):
        """A generator-level :class:`~repro.engine.kernel.ProvenancePruner`.

        Wired to this matrix's batch kernel, with the selection vector
        needed to express global provenance bounds in this layout's
        local bit space.
        """
        from .kernel import ProvenancePruner

        batch = self._batch_for()
        return ProvenancePruner(batch.kernel, self.columns, selection=batch.selection_for(0))

    def row(self, query: OntologyQuery) -> int:
        """The verdict bitset of one query (computed at most once)."""
        key = query_key(query)
        self._known_queries.setdefault(key, query)
        row = self._rows.get(key)
        if row is None:
            row = self._compute_row(query)
            self._rows[key] = row
        else:
            self._cache.stats.count("verdict_row_hits")
        return row

    def _compute_row(self, query: OntologyQuery) -> int:
        if isinstance(query, UnionOfConjunctiveQueries):
            # A UCQ J-matches a border iff some disjunct does, under both
            # answering strategies (see the module docstring).  The union
            # row is pure OR arithmetic over its disjuncts' rows, so it
            # does not count as a verdict-row miss itself — misses count
            # genuinely computed rows only (each disjunct's ``row`` call
            # accounts for its own hit or miss).
            union_row = 0
            for disjunct in query.disjuncts:
                union_row |= self.row(disjunct)
            return union_row
        self._cache.stats.count("verdict_row_misses")
        return self._batch_for().row_for(0, query)

    def upper_bound_row(self, query: OntologyQuery) -> int:
        """A superset of ``row(query)`` bits, cheap enough for pruning.

        An already-known row is its own (tightest) bound; otherwise the
        kernel's per-atom provenance bound is used.
        """
        row = self._rows.get(query_key(query))
        if row is not None:
            return row
        return self._batch_for().upper_bound_for(0, query)

    def _pending_for(
        self, candidates: Iterable[OntologyQuery]
    ) -> Tuple[List[ConjunctiveQuery], List[Tuple], List[UnionOfConjunctiveQueries]]:
        """The deduplicated rowless CQs (and deferred UCQs) of a pool."""
        pending_cqs: List[ConjunctiveQuery] = []
        pending_keys: List[Tuple] = []
        deferred_unions: List[UnionOfConjunctiveQueries] = []

        def enqueue_cq(cq: ConjunctiveQuery) -> None:
            key = query_key(cq)
            self._known_queries.setdefault(key, cq)
            if key not in self._rows and key not in seen:
                seen.add(key)
                pending_cqs.append(cq)
                pending_keys.append(key)

        seen: set = set()
        for candidate in candidates:
            if isinstance(candidate, UnionOfConjunctiveQueries):
                self._known_queries.setdefault(query_key(candidate), candidate)
                if query_key(candidate) not in self._rows:
                    deferred_unions.append(candidate)
                    for disjunct in candidate.disjuncts:
                        enqueue_cq(disjunct)
            else:
                enqueue_cq(candidate)
        return pending_cqs, pending_keys, deferred_unions

    def _store(self, key: Tuple, row: int, counts=None) -> None:
        self._cache.stats.count("verdict_row_misses")
        self._rows[key] = row
        if counts is not None:
            self._counts[key] = counts

    def build(self, candidates: Iterable[OntologyQuery]) -> None:
        """Fill rows for a whole pool in one batch-kernel dispatch.

        UCQs are reduced to their CQ disjuncts first and OR-combined
        afterwards; the rowless CQs go through the bit-sliced kernel as
        one slab, which also hands back vectorized δ-counts for every
        row.
        """
        pending_cqs, pending_keys, deferred_unions = self._pending_for(candidates)

        if pending_cqs:
            [layout_rows] = self._batch_for().rows_for([pending_cqs])
            for key, row, counts in zip(pending_keys, layout_rows.rows, layout_rows.counts):
                self._store(key, row, counts)

        for union in deferred_unions:
            self.row(union)

    @staticmethod
    def build_batch(matrices: Sequence["VerdictMatrix"], pools: Sequence) -> bool:
        """Fill many matrices' rows with **one** batch-kernel dispatch.

        ``matrices[i]`` gets rows for ``pools[i]``.  All matrices must
        share one OBDM system (one database, one set of border ABoxes);
        their column layouts are merged into a single
        :class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`, so
        borders shared between labelings are enumerated once for the
        whole batch.  Returns ``True`` when one dispatch served every
        matrix, ``False`` after falling back to per-matrix :meth:`build`
        calls because the matrices were built over different systems —
        callers get filled matrices either way.
        """
        matrices = list(matrices)
        pools = [list(pool) for pool in pools]
        if len(matrices) != len(pools):
            raise ExplanationError(
                f"build_batch got {len(pools)} pools for {len(matrices)} matrices"
            )
        if not matrices:
            return False
        first = matrices[0]
        batchable = all(
            matrix.evaluator.system is first.evaluator.system for matrix in matrices
        )
        if not batchable or len(matrices) == 1:
            for matrix, pool in zip(matrices, pools):
                matrix.build(pool)
            return batchable
        from .batch_kernel import MultiLabelingBatchKernel

        pending = [matrix._pending_for(pool) for matrix, pool in zip(matrices, pools)]
        batch = MultiLabelingBatchKernel(
            first.evaluator, [matrix.columns for matrix in matrices]
        )
        per_layout = batch.rows_for([cqs for cqs, _, _ in pending])
        for matrix, (_, keys, unions), layout_rows in zip(matrices, pending, per_layout):
            for key, row, counts in zip(keys, layout_rows.rows, layout_rows.counts):
                matrix._store(key, row, counts)
            for union in unions:
                matrix.row(union)
        return True

    # -- incremental maintenance ------------------------------------------

    def apply_drift(
        self,
        added: Iterable[Tuple] = (),
        removed: Iterable = (),
        flipped: Iterable = (),
    ) -> "VerdictMatrix":
        """A new matrix absorbing labeling drift, touching only changed columns.

        *added* pairs raw tuples with their label (``+1``/``-1``),
        *removed* lists tuples leaving the labeling and *flipped* tuples
        whose label changed sign (:class:`~repro.core.labeling.LabelingDrift`
        has exactly this shape).  Every known row is migrated by bit
        permutation: a surviving tuple keeps its verdict bit (the border
        of a tuple depends only on the tuple, the radius and the
        database, none of which drift here), a flipped tuple keeps its
        bit value at its new column position, and only genuinely *new*
        tuples cost a J-match evaluation per known query.  The result is
        byte-identical to building a cold matrix over the drifted
        labeling — the differential suite pins this — because surviving
        bits are the memoized verdicts of exactly the (query, border)
        keys a cold rebuild would look up.
        """
        old = self.columns
        positives = set(old.positive_tuples)
        negatives = set(old.negative_tuples)

        def take_out(raw) -> Tuple[ConstantTuple, int]:
            key = normalize_tuple(raw)
            if key in positives:
                positives.discard(key)
                return key, POSITIVE
            if key in negatives:
                negatives.discard(key)
                return key, NEGATIVE
            raise ExplanationError(f"drift refers to unlabelled tuple {key}")

        for raw in removed:
            take_out(raw)
        for raw in flipped:
            key, label = take_out(raw)
            (negatives if label == POSITIVE else positives).add(key)
        for raw, label in added:
            key = normalize_tuple(raw)
            if key in positives or key in negatives:
                raise ExplanationError(f"drift adds already-labelled tuple {key}")
            if label == POSITIVE:
                positives.add(key)
            elif label == NEGATIVE:
                negatives.add(key)
            else:
                raise ExplanationError(f"drift labels must be +1 or -1, got {label!r}")

        new_positives = _sorted_tuples(positives)
        new_negatives = _sorted_tuples(negatives)
        new_columns = BorderColumns(
            new_positives,
            new_negatives,
            borders=[
                self.evaluator.border_of(value, old.radius)
                for value in new_positives + new_negatives
            ],
            radius=old.radius,
        )
        drifted = VerdictMatrix(self.evaluator, new_columns)
        old_position = {value: bit for bit, value in enumerate(old.tuples)}
        fresh_bits = [
            bit for bit, value in enumerate(new_columns.tuples) if value not in old_position
        ]
        fresh_kernel = None
        if fresh_bits:
            # Evaluate the genuinely new columns through a kernel
            # restricted to their bit positions — the same one-pass path
            # a cold rebuild of the drifted layout would take.
            from .kernel import PoolMatchKernel

            fresh_kernel = PoolMatchKernel(self.evaluator, new_columns, bits=fresh_bits)

        # Snapshot the dict: a concurrent scorer of this matrix may still
        # be registering queries (row()/build() setdefault), and iterating
        # the live dict would raise mid-drift.  A query missing from the
        # snapshot just migrates nothing and is computed lazily later.
        for key, query in list(self._known_queries.items()):
            old_row = self._rows.get(key)
            if old_row is None:
                continue
            drifted._known_queries[key] = query
            if key in drifted._rows:
                continue  # another scorer already filled the drifted layout
            row = 0
            for bit, value in enumerate(new_columns.tuples):
                position = old_position.get(value)
                if position is not None:
                    row |= ((old_row >> position) & 1) << bit
            if fresh_kernel is not None:
                row |= fresh_kernel.row(query)
            drifted._rows[key] = row
        return drifted

    def apply_database_delta(self) -> "VerdictMatrix":
        """A matrix over the *current* database content, reusing every
        column whose border survived the drift.

        The database-side dual of :meth:`apply_drift`: the labeling (and
        hence the tuple order) is unchanged, but the underlying facts
        moved, so each column's border is recomputed — untouched tuples
        hit the border cache and come back content-identical, and only
        the columns whose recomputed border actually *differs* are
        re-evaluated.  Call it after the delta has been applied to the
        database and routed through
        :meth:`~repro.core.border.BorderComputer.apply_delta` (the
        explanation service does both).

        Surviving columns migrate by bit masking (the permutation is the
        identity here — same tuples, same order); changed columns are
        evaluated for every known query through one batch-kernel
        dispatch over just those columns.  If no border changed the
        matrix itself is returned (every row is still exact).
        """
        old = self.columns
        new_borders = [
            self.evaluator.border_of(value, old.radius) for value in old.tuples
        ]
        changed_bits = [
            bit
            for bit, (previous, current) in enumerate(zip(old.borders, new_borders))
            if previous != current
        ]
        if not changed_bits:
            return self
        new_columns = BorderColumns(
            old.positive_tuples, old.negative_tuples, new_borders, old.radius
        )
        drifted = VerdictMatrix(self.evaluator, new_columns)
        keep_mask = ~sum(1 << bit for bit in changed_bits)
        # Snapshot for the same concurrency reason as apply_drift.
        pending: List[Tuple[Tuple, OntologyQuery, int]] = []
        for key, query in list(self._known_queries.items()):
            old_row = self._rows.get(key)
            if old_row is None:
                continue
            drifted._known_queries[key] = query
            if key in drifted._rows:
                continue  # another scorer already filled the new layout
            pending.append((key, query, old_row & keep_mask))
        if pending:
            fresh_rows = drifted._changed_column_rows(
                [query for _, query, _ in pending], changed_bits
            )
            for (key, _query, migrated), fresh in zip(pending, fresh_rows):
                drifted._rows[key] = migrated | fresh
        return drifted

    def _changed_column_rows(
        self, queries: Sequence[OntologyQuery], changed_bits: Sequence[int]
    ) -> List[int]:
        """Verdict bits of *queries* at the changed columns only.

        One batch dispatch whose global index holds just the changed
        borders, the same machinery as a cold build restricted to those
        bit positions.  Returned rows carry bits at the original column
        positions.
        """
        if not queries:
            return []
        from .batch_kernel import MultiLabelingBatchKernel

        patch_columns = BorderColumns(
            [self.columns.tuples[bit] for bit in changed_bits],
            (),
            borders=[self.columns.borders[bit] for bit in changed_bits],
            radius=self.columns.radius,
        )
        batch = MultiLabelingBatchKernel(self.evaluator, [patch_columns])
        [layout_rows] = batch.rows_for([list(queries)])
        scattered = []
        for local_row in layout_rows.rows:
            row = 0
            for local, bit in enumerate(changed_bits):
                row |= ((local_row >> local) & 1) << bit
            scattered.append(row)
        return scattered

    # -- consumption ------------------------------------------------------

    def profile(self, query: OntologyQuery) -> BitsetVerdictProfile:
        """The (popcount-backed) match profile of one query."""
        row = self.row(query)
        return BitsetVerdictProfile(
            row, self.columns, counts=self._counts.get(query_key(query))
        )

    def matched_positives(self, query: OntologyQuery) -> int:
        return (self.row(query) & self.columns.positives_mask).bit_count()

    def matched_negatives(self, query: OntologyQuery) -> int:
        return (self.row(query) & self.columns.negatives_mask).bit_count()

    def known_rows(self) -> int:
        return len(self._rows)

    def __str__(self):
        return f"VerdictMatrix({self.columns}, rows={len(self._rows)})"
