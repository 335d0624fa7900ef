"""Pool-level match kernel: whole verdict rows in one indexed pass.

The bitset verdict engine (:mod:`repro.engine.verdicts`) made criteria
evaluation popcount arithmetic, but still *constructed* each row cell by
cell: one full certain-answer check per (candidate, border) pair —
O(|pool| × |borders|) independent rewriting and homomorphism searches.
This module collapses row construction into a few indexed passes, in
the spirit of CrocoPat's bit-level relational predicates and tabled
logic programming:

:class:`UnifiedBorderIndex`
    Holds the retrieved facts of all border columns of one layout in a
    single **columnar fact store**: per predicate, parallel argument-row
    and provenance arrays, where each fact's provenance is a bitset of
    the border columns whose ABox holds it (plus a ``(predicate,
    position, constant)`` index for bound-argument narrowing).  Under
    the default rewriting strategy the bitsets come straight from the
    derivation table (:meth:`~repro.core.matching.MatchEvaluator.border_provenance`):
    no per-border ABox is built or looked up.  Under the chase strategy
    each border's ABox is saturated *individually* (same memo keys as
    the per-pair path) and the saturations are merged, so cross-border
    joins are impossible by construction: a homomorphism only counts
    for column ``i`` when the AND of its facts' provenances contains
    bit ``i``.

:class:`PoolMatchKernel`
    Computes one candidate's **entire verdict row** from a single
    homomorphism enumeration of the (rewritten) CQ over the unified
    index.  Instead of backtracking per border, it runs a
    set-at-a-time hash join: the state after ``k`` atoms maps each
    distinct variable binding to the OR of the provenance ANDs of the
    homomorphisms reaching it.  When the body is exhausted, each
    binding's head projection is looked up in the column-tuple table
    and its provenance mask contributes the row bits directly.  A bit
    ``i`` survives iff some homomorphism lies entirely inside border
    ``i``'s facts *and* maps the head to column ``i``'s tuple — exactly
    the per-pair ``matches_border`` verdict, which the differential
    suite (``tests/engine/test_match_kernel.py``) pins byte-identical
    across all four domains × {CQ, UCQ} × {thread, process}.

    **Subquery tabling** — candidate pools are sub-conjunction
    lattices with massive atom overlap, so the kernel tables the
    partial-match state of every canonical atom prefix (atoms in
    canonical sorted order, variables renamed by first appearance) in
    the shared :class:`~repro.engine.cache.EvaluationCache`
    (:meth:`~repro.engine.cache.EvaluationCache.subquery_tables`).
    Candidates sharing a two-atom prefix pay for it once; reuse is
    visible in ``CacheStats.subquery_hits`` / ``subquery_misses``.

Every verdict row of the default configuration comes out of this
kernel, wrapped by :class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`;
``tests/engine/test_match_kernel.py`` checks its rows bit for bit
against the per-pair Definition 3.4 oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Variable, is_constant, is_variable
from ..queries.ucq import UnionOfConjunctiveQueries


class UnifiedBorderIndex:
    """Columnar fact store merging many border ABoxes with provenance.

    *entries* pairs each border-column bit with that border's (strategy-
    appropriate) fact set.  Facts are deduplicated across borders; each
    keeps a provenance bitset of the columns it occurs in.  A caller that
    already has those bitsets passes them as *provenance* (fact →
    column mask, e.g. :meth:`~repro.engine.cache.DerivationTable.provenance`)
    with the *full_mask* of its columns, and empty *entries*.
    """

    __slots__ = ("full_mask", "_by_predicate", "_by_position", "_row_ids")

    def __init__(
        self,
        entries: Sequence[Tuple[int, FrozenSet[Atom]]],
        provenance: Optional[Dict[Atom, int]] = None,
        full_mask: int = 0,
    ):
        if provenance is None:
            provenance = {}
            for bit, facts in entries:
                flag = 1 << bit
                full_mask |= flag
                for fact in facts:
                    provenance[fact] = provenance.get(fact, 0) | flag
        self.full_mask = full_mask
        # Columnar layout: per predicate, parallel argument-row and
        # provenance arrays; plus (predicate, position, constant) → row
        # ids for narrowing atoms with bound arguments.
        by_predicate: Dict[str, Tuple[List[Tuple], List[int]]] = {}
        by_position: Dict[Tuple, List[int]] = {}
        # Row order is irrelevant to results: rows are OR-accumulated per
        # binding, so any enumeration order yields the same bitsets.
        for fact, mask in provenance.items():
            bucket = by_predicate.get(fact.predicate)
            if bucket is None:
                bucket = by_predicate[fact.predicate] = ([], [])
            args_rows, mask_rows = bucket
            row_id = len(args_rows)
            args_rows.append(fact.args)
            mask_rows.append(mask)
            for position, argument in enumerate(fact.args):
                by_position.setdefault(
                    (fact.predicate, position, argument), []
                ).append(row_id)
        self._by_predicate = by_predicate
        self._by_position = by_position
        # predicate → argument row → row id, built by the first
        # apply_patch (the only reader).
        self._row_ids: Optional[Dict[str, Dict[Tuple, int]]] = None

    def candidates(self, atom: Atom) -> List[Tuple[Tuple, int]]:
        """(argument row, provenance mask) pairs that could match *atom*.

        Narrowed by the atom's most selective constant position; other
        constant positions are *not* re-checked here (callers verify
        them while matching), mirroring ``FactIndex.candidates``.
        """
        bucket = self._by_predicate.get(atom.predicate)
        if bucket is None:
            return []
        args_rows, mask_rows = bucket
        selected: Optional[List[int]] = None
        for position, argument in enumerate(atom.args):
            if is_constant(argument):
                narrowed = self._by_position.get((atom.predicate, position, argument))
                if narrowed is None:
                    return []
                if selected is None or len(narrowed) < len(selected):
                    selected = narrowed
        ids = range(len(args_rows)) if selected is None else selected
        return [(args_rows[i], mask_rows[i]) for i in ids]

    def apply_patch(
        self, entries: Sequence[Tuple[int, FrozenSet[Atom]]]
    ) -> FrozenSet[str]:
        """Replace the fact columns of the given bits **in place**.

        Database drift changes a few borders; rebuilding the whole
        merged index would repay the merge for every unchanged border.
        Instead each entry ``(bit, facts)`` swaps in the bit's new fact
        set: the bit is first cleared from every row's provenance
        (a row whose mask drops to zero becomes a **tombstone** — it
        stays in the columnar arrays but can never contribute to a join,
        since survivors are computed by AND), then set on the rows of the
        new facts — **appending** fresh rows, with their ``(predicate,
        position, constant)`` narrowing entries, for facts the index has
        never held.  Returns the touched predicates.  The first call builds the
        argument-row → row-id map that finds a re-added fact's row.
        """
        if not entries:
            return frozenset()
        if self._row_ids is None:
            self._row_ids = {
                predicate: {args: row_id for row_id, args in enumerate(args_rows)}
                for predicate, (args_rows, _mask_rows) in self._by_predicate.items()
            }
        clear_mask = 0
        for bit, _facts in entries:
            clear_mask |= 1 << bit
        keep = ~clear_mask
        touched_predicates = set()
        for predicate, (_args_rows, mask_rows) in self._by_predicate.items():
            for i, mask in enumerate(mask_rows):
                if mask & clear_mask:
                    mask_rows[i] = mask & keep
                    touched_predicates.add(predicate)
        for bit, facts in entries:
            flag = 1 << bit
            self.full_mask |= flag
            for fact in facts:
                touched_predicates.add(fact.predicate)
                bucket = self._by_predicate.get(fact.predicate)
                if bucket is None:
                    bucket = self._by_predicate[fact.predicate] = ([], [])
                args_rows, mask_rows = bucket
                rows = self._row_ids.setdefault(fact.predicate, {})
                row_id = rows.get(fact.args)
                if row_id is None:
                    row_id = len(args_rows)
                    args_rows.append(fact.args)
                    mask_rows.append(0)
                    rows[fact.args] = row_id
                    for position, argument in enumerate(fact.args):
                        self._by_position.setdefault(
                            (fact.predicate, position, argument), []
                        ).append(row_id)
                mask_rows[row_id] |= flag
        return frozenset(touched_predicates)


class PoolMatchKernel:
    """One-pass verdict rows for a pool of candidates over merged borders.

    Built for one (evaluator, column layout) pair; a
    :class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel` builds
    one over its merged global layout.
    """

    def __init__(self, evaluator, columns):
        self.evaluator = evaluator
        self.columns = columns
        self._engine = evaluator.system.specification.engine
        self._cache = self._engine.cache
        self._strategy = self._engine.strategy
        self._index: Optional[UnifiedBorderIndex] = None
        # arity → {column tuple: its single column bit}; answers of the
        # wrong arity never match a column (the per-pair path's arity
        # short-circuit), so both maps are arity-partitioned.
        self._target_bits: Dict[int, Dict[Tuple, int]] = {}
        self._arity_masks: Dict[int, int] = {}
        self._tables: Dict[Tuple, Dict[Tuple, int]] = {}

    # -- index construction ------------------------------------------------

    def _register_columns(self) -> None:
        for bit, value in enumerate(self.columns.tuples):
            arity = len(value)
            targets = self._target_bits.setdefault(arity, {})
            targets[value] = targets.get(value, 0) | (1 << bit)
            self._arity_masks[arity] = self._arity_masks.get(arity, 0) | (1 << bit)

    def _bind_tables(self) -> None:
        # Content-addressed identity of this index: the column layout
        # key embeds every border's tuple, radius and atom layers, so
        # the tabled states stay sound across database content changes;
        # the strategy (and chase depth) select which fact sets were
        # merged.
        index_key = (
            "kernel_tables",
            self.columns.key(),
            self._strategy,
            self._engine.chase_depth if self._strategy == "chase" else None,
        )
        self._tables = self._cache.subquery_tables(index_key)

    def _ensure_index(self) -> UnifiedBorderIndex:
        if self._index is not None:
            return self._index
        borders = self.columns.borders
        if self._strategy == "chase":
            # Saturate per border (same memo key as the per-pair path);
            # merging *saturations* keeps provenance exact — facts
            # derived from two different borders never join into a
            # spurious single-border homomorphism because their
            # provenance AND is empty.  Missing ABoxes share one tabled
            # mapping pass (see MatchEvaluator.border_aboxes).
            entries = [
                (bit, self._engine.saturate(abox).facts)
                for bit, abox in enumerate(self.evaluator.border_aboxes(borders))
            ]
            index = UnifiedBorderIndex(entries)
        else:
            # Retrieved facts carry their column bits straight from the
            # derivation table: no per-border ABox is built.  The empty
            # entries stay positional because e2ebench's tracer reads the
            # first argument of every index build as (bit, facts) pairs.
            index = UnifiedBorderIndex(
                (),
                provenance=self.evaluator.border_provenance(borders),
                full_mask=(1 << len(borders)) - 1,
            )
        self._register_columns()
        self._index = index
        self._bind_tables()
        return index

    def _disjuncts(self, query: ConjunctiveQuery) -> Sequence[ConjunctiveQuery]:
        """The CQs whose matches over the index make up *query*'s row.

        Under ``rewriting``: the perfect rewriting, whose rewriter checks
        the query against the ontology vocabulary.  Under ``chase`` the
        index holds saturated facts, so the query itself, after the same
        check (once per query signature).
        """
        if self._strategy == "rewriting":
            return self._cache.rewriting(query).disjuncts
        self._engine.validate(query)
        return (query,)

    # -- rows --------------------------------------------------------------

    def row(self, query) -> int:
        """The full verdict bitset of one query over the layout's columns."""
        if isinstance(query, UnionOfConjunctiveQueries):
            # Same reduction as the verdict matrix: a UCQ J-matches a
            # border iff some disjunct does, under both strategies.
            union_row = 0
            for disjunct in query.disjuncts:
                union_row |= self.row(disjunct)
            return union_row
        index = self._ensure_index()
        targets = self._target_bits.get(query.arity)
        if not targets:
            return 0
        # The per-pair path evaluates each border on its own; here each
        # disjunct makes one unified pass instead.
        row = 0
        full = self._arity_masks[query.arity]
        for disjunct in self._disjuncts(query):
            row |= self._cq_row(disjunct, targets, index)
            if row == full:
                break
        return row

    def _cq_row(self, cq: ConjunctiveQuery, targets: Dict[Tuple, int], index) -> int:
        state, var_index = self._match_state(tuple(sorted(cq.body)), index)
        if not state:
            return 0
        head_positions = [var_index[variable] for variable in cq.head]
        row = 0
        for values, mask in state.items():
            flag = targets.get(tuple(values[position] for position in head_positions))
            if flag:
                row |= mask & flag
        return row

    # -- the tabled set-at-a-time join ------------------------------------

    def _match_state(
        self, atoms: Tuple[Atom, ...], index: UnifiedBorderIndex
    ) -> Tuple[Dict[Tuple, int], Dict[Variable, int]]:
        """Partial-match state of a full body: binding tuple → provenance OR.

        Bindings are tuples aligned with the body's variables in order
        of first appearance over the canonically sorted atoms; the mask
        of a binding is the OR over all homomorphisms reaching it of the
        AND of their facts' provenances.  Merging homomorphisms that
        agree on the binding is sound because any extension depends only
        on the bound values, never on which facts produced them.
        """
        # Canonical renaming (first appearance over the sorted body) so
        # α-equivalent prefixes of different candidates share one table
        # entry; renaming a prefix is the truncation of renaming the
        # whole body, which is what makes prefix keys compositional.
        var_index: Dict[Variable, int] = {}
        renamed: List[Atom] = []
        prefix_vars: List[int] = []  # distinct vars within the first k atoms
        for atom in atoms:
            new_args = []
            for argument in atom.args:
                if is_variable(argument):
                    position = var_index.setdefault(argument, len(var_index))
                    new_args.append(Variable(f"k{position}"))
                else:
                    new_args.append(argument)
            renamed.append(Atom(atom.predicate, tuple(new_args)))
            prefix_vars.append(len(var_index))

        stats = self._cache.stats
        start = 0
        state: Dict[Tuple, int] = {(): index.full_mask}
        for length in range(len(atoms), 0, -1):
            cached = self._tables.get(tuple(renamed[:length]))
            if cached is not None:
                stats.count("subquery_hits")
                state = cached
                start = length
                break
            stats.count("subquery_misses")
        for position in range(start, len(atoms)):
            known = prefix_vars[position - 1] if position else 0
            state = self._extend(state, atoms[position], var_index, known, index)
            # First writer wins (identical values either way); the tabled
            # dicts are treated as immutable by every consumer.
            state = self._tables.setdefault(tuple(renamed[: position + 1]), state)
        return state, var_index

    def _extend(
        self,
        state: Dict[Tuple, int],
        atom: Atom,
        var_index: Dict[Variable, int],
        known: int,
        index: UnifiedBorderIndex,
    ) -> Dict[Tuple, int]:
        """Hash-join one atom into the partial-match state."""
        if not state:
            # A dead prefix (e.g. an earlier zero-provenance atom) stays
            # dead; don't pay for the probe table just to join nothing.
            return {}
        const_checks: List[Tuple[int, object]] = []
        bound_checks: List[Tuple[int, int]] = []  # (atom position, binding slot)
        new_positions: List[List[int]] = []  # per new variable, its positions
        slot_of_new: Dict[Variable, int] = {}
        for position, argument in enumerate(atom.args):
            if is_constant(argument):
                const_checks.append((position, argument))
            elif var_index[argument] < known:
                bound_checks.append((position, var_index[argument]))
            else:
                slot = slot_of_new.get(argument)
                if slot is None:
                    slot_of_new[argument] = len(new_positions)
                    new_positions.append([position])
                else:
                    new_positions[slot].append(position)

        # Probe table: values at the bound positions → matching fact rows.
        probe: Dict[Tuple, List[Tuple[Tuple, int]]] = {}
        for args, mask in index.candidates(atom):
            if any(args[position] != argument for position, argument in const_checks):
                continue
            extracted = []
            consistent = True
            for positions in new_positions:
                value = args[positions[0]]
                for position in positions[1:]:
                    if args[position] != value:
                        consistent = False
                        break
                if not consistent:
                    break
                extracted.append(value)
            if not consistent:
                continue
            key = tuple(args[position] for position, _ in bound_checks)
            probe.setdefault(key, []).append((tuple(extracted), mask))

        joined: Dict[Tuple, int] = {}
        if not probe:
            return joined
        for values, mask in state.items():
            hits = probe.get(tuple(values[slot] for _, slot in bound_checks))
            if not hits:
                continue
            for extracted, fact_mask in hits:
                survivors = mask & fact_mask
                if not survivors:
                    continue
                key = values + extracted
                previous = joined.get(key)
                joined[key] = survivors if previous is None else previous | survivors
        return joined

    def __str__(self):
        return (
            f"PoolMatchKernel({self.columns}, "
            f"strategy={self._strategy!r})"
        )
