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

A verdict depends only on the (query, border) pair, so rows are not
stored per layout: the specification's
:class:`~repro.engine.cache.VerdictStore` keeps, per border value, the
bitsets of the registered queries evaluated on it and of those that
matched, and a matrix's rows are a **gather** over its columns.  Only
the cells no layout has evaluated yet go through the bit-sliced batch
kernel (:class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`),
in one dispatch over just the borders missing a cell, and are written
back.  The rows are *verdict-for-verdict identical* to the per-pair
oracle — the differential suites (``tests/engine/test_verdict_matrix.py``,
``tests/service/test_oracle_differential.py``,
``tests/engine/test_verdict_store.py``) pin that across all four domain
ontologies.

UCQ rows are the bitwise OR of their disjuncts' rows.  That is sound
for both answering strategies: the chase path evaluates a UCQ
disjunct-by-disjunct (``UnionOfConjunctiveQueries.contains_tuple``) and
the rewriting path rewrites a UCQ into the deduplicated union of its
disjuncts' rewritings, so a UCQ J-matches a border iff some disjunct
does.  This makes the greedy union construction of
:meth:`~repro.core.best_describe.BestDescriptionSearch.best_ucq`
popcount-cheap once the CQ rows exist.

A matrix keeps the rows it gathered privately, so scoring the same
pool again under a different (Δ, Z) configuration never touches the
store, and evicting store entries never disconnects a matrix.
``specification.engine.verdicts.enabled = False``
(:class:`~repro.engine.cache.VerdictPolicy`) bypasses this module and
scores through the per-pair oracle instead.

New labelings, labeling drift and database deltas are one case:
:meth:`VerdictMatrix.build`, :meth:`~VerdictMatrix.build_batch`,
:meth:`~VerdictMatrix.apply_drift` and
:meth:`~VerdictMatrix.apply_database_delta` each build the column
layout, then fill it through one path (:meth:`VerdictMatrix._fill`):
gather the known cells, evaluate the missing ones in one dispatch per
system and radius, write them back.  A drift onto borders the store
already holds dispatches nothing; a delta evaluates each changed
border once, however many sessions hold it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

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
from ..queries.ucq import UnionOfConjunctiveQueries, query_key
from .batch_kernel import (
    MultiLabelingBatchKernel,
    masked_popcounts,
    pack_bit_matrix,
    pack_rows,
    unpack_bits,
)


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
    Equality and hashing go through the materialized profile, so
    bitset-backed and set-backed profiles of the same verdicts compare
    equal.
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


class VerdictMatrix:
    """All candidates' J-match verdicts against one labeling, as bitsets.

    Rows are gathered from the specification's verdict store and kept
    privately, keyed by :func:`~repro.queries.ucq.query_key`: a row once
    stored is served by this matrix without touching the store again.
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
        self._rows: Dict[Tuple, int] = {}
        # Confusion counts from the fill's vectorized popcount pass,
        # keyed like the rows (a local shortcut, cheap to recompute).
        self._counts: Dict[Tuple, Tuple[int, int]] = {}

    # -- row computation --------------------------------------------------

    def _batch_for(self):
        """A single-layout batch kernel over this matrix's columns.

        Kept for the life of the matrix so its unified index and
        subquery tables stay warm for lazy single rows (UCQ extensions,
        scoring queries outside the built pool).
        """
        if self._batch is None:
            self._batch = MultiLabelingBatchKernel(self.evaluator, [self.columns])
        return self._batch

    def row(self, query: OntologyQuery) -> int:
        """The verdict bitset of one query (computed at most once)."""
        key = query_key(query)
        row = self._rows.get(key)
        if row is not None:
            self._cache.stats.count("verdict_row_hits")
            return row
        if not isinstance(query, UnionOfConjunctiveQueries):
            VerdictMatrix._fill([(self, [query])], lazy=True)
            return self._rows[key]
        # A UCQ J-matches a border iff some disjunct does, under both
        # answering strategies (see the module docstring).  The union
        # row is pure OR arithmetic over its disjuncts' rows, so it does
        # not count as a verdict-row miss itself — each disjunct's
        # ``row`` call accounts for its own hit or miss.
        row = 0
        for disjunct in query.disjuncts:
            row |= self.row(disjunct)
        self._rows[key] = row
        return row

    def build(self, candidates: Iterable[OntologyQuery]) -> None:
        """Store a row for every candidate of a pool.

        Cells the verdict store already holds are gathered; the rest go
        through one batch-kernel dispatch, which also hands back
        vectorized δ-counts for every row (see :meth:`_fill`).
        """
        VerdictMatrix._fill([(self, candidates)])

    @staticmethod
    def build_batch(matrices: Sequence["VerdictMatrix"], pools: Sequence) -> bool:
        """Fill many matrices' rows with **one** batch-kernel dispatch.

        ``matrices[i]`` gets rows for ``pools[i]``.  The missing cells of
        all matrices over one OBDM system (one database, one set of border
        ABoxes) and radius are merged into a single
        :class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`
        dispatch, so borders shared between labelings are enumerated once
        for the whole batch.  Returns ``True`` when every matrix shares
        one system, ``False`` when they span several (each system then
        gets its own dispatch) — callers get filled matrices either way.
        """
        matrices, pools = list(matrices), list(pools)
        if len(matrices) != len(pools):
            raise ExplanationError(
                f"build_batch got {len(pools)} pools for {len(matrices)} matrices"
            )
        if not matrices:
            return False
        VerdictMatrix._fill(list(zip(matrices, pools)))
        system = matrices[0].evaluator.system
        return all(matrix.evaluator.system is system for matrix in matrices)

    # -- incremental maintenance ------------------------------------------

    def _registered_queries(self) -> List[OntologyQuery]:
        """The queries of this matrix's rows the verdict store still registers."""
        return self._cache.verdict_store().queries(list(self._rows))

    def apply_drift(
        self,
        added: Iterable[Tuple] = (),
        removed: Iterable = (),
        flipped: Iterable = (),
    ) -> "VerdictMatrix":
        """A new matrix over the drifted labeling, filled for this one's queries.

        *added* pairs raw tuples with their label (``+1``/``-1``),
        *removed* lists tuples leaving the labeling and *flipped* tuples
        whose label changed sign (:class:`~repro.core.labeling.LabelingDrift`
        has exactly this shape).  The drifted layout is filled through
        the one fill path: a surviving or flipped tuple keeps its border
        (a border depends only on the tuple, the radius and the
        database, none of which drift here), so its cells are gathered
        from the store, and only borders the store lacks — typically the
        genuinely new tuples' — are evaluated, in one dispatch; none if
        every border is known.  The result is byte-identical to building
        a cold matrix over the drifted labeling (the differential suites
        pin this).
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
        VerdictMatrix._fill([(drifted, self._registered_queries())])
        return drifted

    @staticmethod
    def current_borders(matrices: Sequence["VerdictMatrix"]) -> Dict[Tuple, Border]:
        """Each distinct column of *matrices* → its border over the current database.

        Keyed by ``(border computer, tuple, radius)``: a column that many
        matrices hold is resolved once, through its evaluator's
        :meth:`~repro.core.matching.MatchEvaluator.border_of`, and two
        evaluators with their own border computers never share an entry.
        """
        borders: Dict[Tuple, Border] = {}
        for matrix in matrices:
            evaluator, radius = matrix.evaluator, matrix.columns.radius
            for value in matrix.columns.tuples:
                key = (evaluator.borders, value, radius)
                if key not in borders:
                    borders[key] = evaluator.border_of(value, radius)
        return borders

    @staticmethod
    def apply_database_delta(
        matrices: Sequence["VerdictMatrix"], borders: Dict[Tuple, Border]
    ) -> List["VerdictMatrix"]:
        """One matrix per input matrix over the *current* database content.

        The database-side dual of :meth:`apply_drift`, for a whole batch
        (a lone matrix is a batch of one): the labelings (and hence the
        tuple orders) are unchanged, but the underlying facts moved, so
        each column takes its border over the new content from *borders*,
        the map :meth:`current_borders` builds, so no column is resolved
        twice.  Build the map after the delta has been applied to the
        database and routed through
        :meth:`~repro.core.border.BorderComputer.apply_delta` (the
        explanation service does all three), so untouched columns hit
        the border cache and come back as the same borders.

        Every changed matrix is refilled for its queries through the one
        fill path, all of them together: surviving borders are gathered
        from the store, and the changed borders of all matrices of one
        system and radius are evaluated in **one** batch-kernel dispatch,
        each distinct (query, border) cell once.  A matrix none of whose
        borders changed comes back as itself (every row is still exact).
        """
        results: List[VerdictMatrix] = []
        jobs = []
        for matrix in matrices:
            old = matrix.columns
            computer = matrix.evaluator.borders
            new_borders = [borders[(computer, value, old.radius)] for value in old.tuples]
            if new_borders == list(old.borders):
                results.append(matrix)
                continue
            drifted = VerdictMatrix(
                matrix.evaluator,
                BorderColumns(old.positive_tuples, old.negative_tuples, new_borders, old.radius),
            )
            jobs.append((drifted, matrix._registered_queries()))
            results.append(drifted)
        VerdictMatrix._fill(jobs)
        return results

    # -- the fill path ------------------------------------------------------

    @staticmethod
    def _fill(jobs: Sequence[Tuple], lazy: bool = False) -> None:
        """Store a row in each job's matrix for each of its queries.

        Each job is ``(matrix, queries)``; queries the matrix already has
        a row for are skipped.  Jobs over one system and radius form a
        group, filled in four steps: gather every requested cell from
        the verdict store in one locked read; send the missing cells
        through **one** batch-kernel dispatch over just the borders
        missing a cell (each job contributes its rows with a missing
        cell over its borders with one); write the new verdicts back;
        assemble each job's rows and δ-counts from the gathered and the
        computed bits.  With *lazy* (one job, a single row) the missing
        row comes from the matrix's own full-layout kernel instead, so a
        row at a time never pays for an index build.

        Counters: per group, ``verdict_cells_evaluated`` counts the
        distinct requested cells nobody had evaluated and
        ``verdict_cells_reused`` the ones gathered; per job,
        ``verdict_row_misses`` counts rows that needed kernel work and
        ``verdict_row_hits`` rows served from gathered cells alone.
        """
        groups: Dict[Tuple, List[Tuple]] = {}
        for matrix, queries in jobs:
            pending: Dict[Tuple, OntologyQuery] = {}
            for query in queries:
                key = query_key(query)
                if key not in matrix._rows:
                    pending.setdefault(key, query)
            if pending:
                group = (id(matrix.evaluator.system), matrix.columns.radius)
                groups.setdefault(group, []).append((matrix, pending))
        for group in groups.values():
            VerdictMatrix._fill_group(group, lazy)

    @staticmethod
    def _fill_group(group: List[Tuple], lazy: bool) -> None:
        first = group[0][0]
        queries: Dict[Tuple, OntologyQuery] = {}
        border_index: Dict[Border, int] = {}
        for matrix, pending in group:
            for key, query in pending.items():
                queries.setdefault(key, query)
            for border in matrix.columns.borders:
                border_index.setdefault(border, len(border_index))
        key_index = {key: position for position, key in enumerate(queries)}
        borders = list(border_index)
        store = first._cache.verdict_store()
        known, matched = store.gather(borders, list(queries))

        requested = _np.zeros_like(known)
        jobs = []
        for matrix, pending in group:
            job = _FillJob(matrix, pending, key_index, border_index, known, lazy)
            requested[job.cells] = 1
            jobs.append(job)

        work = [job for job in jobs if len(job.todo_rows)]
        if lazy:
            computed = [
                [job.matrix._batch_for().row_for(0, query) for query in job.todo_queries()]
                for job in work
            ]
        elif work:
            layouts = [job.todo_columns() for job in work]
            computed = MultiLabelingBatchKernel(first.evaluator, layouts).rows_for(
                [job.todo_queries() for job in work]
            )
        else:
            computed = []

        done = _np.zeros_like(known)
        verdicts = _np.zeros_like(known)
        for job, local_rows in zip(work, computed):
            job.fresh = unpack_bits(pack_rows(local_rows, len(job.todo_cols)), len(job.todo_cols))
            cells = _np.ix_(job.rows[job.todo_rows], job.cols[job.todo_cols])
            done[cells] = 1
            verdicts[cells] = job.fresh
        if work:
            written = done.any(axis=1).nonzero()[0]
            entries = list(queries.items())
            store.write(borders, [entries[i] for i in written], done[written], verdicts[written])

        evaluated = int((requested & (1 - known)).sum())
        counts = {
            "verdict_cells_evaluated": evaluated,
            "verdict_cells_reused": int(requested.sum()) - evaluated,
            "verdict_row_misses": 0,
            "verdict_row_hits": 0,
        }
        for job in jobs:
            job.store_rows(matched)
            counts["verdict_row_misses"] += len(job.todo_rows)
            counts["verdict_row_hits"] += len(job.pending) - len(job.todo_rows)
        first._cache.stats.merge(counts)

    # -- consumption ------------------------------------------------------

    def profile(self, query: OntologyQuery) -> BitsetVerdictProfile:
        """The (popcount-backed) match profile of one query."""
        row = self.row(query)
        return BitsetVerdictProfile(
            row, self.columns, counts=self._counts.get(query_key(query))
        )

    def counts(self, query: OntologyQuery) -> Tuple[int, int]:
        """(TP, FP): how many positive and negative columns the query matches.

        Read from the δ-counts the fill computed for the row, without a
        row lookup (so ``verdict_row_hits`` does not move).  A row
        without them (a UCQ's OR of its disjuncts' rows) falls back to
        popcounts of the row.
        """
        key = query_key(query)
        counts = self._counts.get(key)
        if counts is None:
            row = self.row(query)
            counts = self._counts.setdefault(
                key,
                (
                    (row & self.columns.positives_mask).bit_count(),
                    (row & self.columns.negatives_mask).bit_count(),
                ),
            )
        return counts

    def known_rows(self) -> int:
        return len(self._rows)

    def __str__(self):
        return f"VerdictMatrix({self.columns}, rows={len(self._rows)})"


class _FillJob:
    """One matrix's share of a group fill (see :meth:`VerdictMatrix._fill`).

    ``rows`` / ``cols`` index the job's queries and borders in the
    group's gathered matrices; ``todo_rows`` / ``todo_cols`` are the
    local positions of the queries and borders holding a missing cell
    (every border for a lazy single row, which the matrix's full-layout
    kernel computes whole); ``fresh`` receives the computed bits there.
    """

    __slots__ = ("matrix", "pending", "rows", "cols", "cells", "todo_rows", "todo_cols", "fresh")

    def __init__(self, matrix, pending, key_index, border_index, known, lazy: bool):
        self.matrix = matrix
        self.pending = pending
        self.rows = _np.array([key_index[key] for key in pending], dtype=_np.intp)
        self.cols = _np.array(
            [border_index[border] for border in matrix.columns.borders], dtype=_np.intp
        )
        self.cells = _np.ix_(self.rows, self.cols)
        missing = known[self.cells] == 0
        self.todo_rows = missing.any(axis=1).nonzero()[0]
        if lazy:
            self.todo_cols = _np.arange(len(self.cols)) if len(self.todo_rows) else self.todo_rows
        else:
            self.todo_cols = missing.any(axis=0).nonzero()[0]
        self.fresh = None

    def todo_queries(self) -> List[OntologyQuery]:
        queries = list(self.pending.values())
        return [queries[position] for position in self.todo_rows]

    def todo_columns(self) -> BorderColumns:
        """A layout of just the borders missing a cell (all filed as positives)."""
        columns = self.matrix.columns
        return BorderColumns(
            [columns.tuples[position] for position in self.todo_cols],
            (),
            [columns.borders[position] for position in self.todo_cols],
            columns.radius,
        )

    def store_rows(self, matched) -> None:
        """Assemble the rows from gathered and fresh bits; store them with δ-counts."""
        bits = matched[self.cells]
        if self.fresh is not None:
            bits[_np.ix_(self.todo_rows, self.todo_cols)] = self.fresh
        words, ints = pack_bit_matrix(bits)
        columns = self.matrix.columns
        positives = masked_popcounts(words, columns.positives_mask, columns.width)
        negatives = masked_popcounts(words, columns.negatives_mask, columns.width)
        for position, key in enumerate(self.pending):
            self.matrix._counts[key] = (int(positives[position]), int(negatives[position]))
            self.matrix._rows[key] = ints[position]
