"""Pool-level match kernel: whole verdict rows in one indexed pass.

The bitset verdict engine (:mod:`repro.engine.verdicts`) made criteria
evaluation popcount arithmetic, but still *constructed* each row cell by
cell: one full certain-answer check per (candidate, border) pair —
O(|pool| × |borders|) independent rewriting and homomorphism searches.
This module collapses row construction into a few indexed passes, in
the spirit of CrocoPat's bit-level relational predicates and tabled
logic programming:

:class:`UnifiedBorderIndex`
    Merges all border ABoxes of one labeling into a single **columnar
    fact store**: per predicate, parallel argument-row and provenance
    arrays, where each fact's provenance is a bitset of the border
    columns it belongs to (plus a ``(predicate, position, constant)``
    index for bound-argument narrowing).  Under the chase strategy each
    border's ABox is saturated *individually* (same memo keys as the
    per-pair path) before merging, so cross-border joins are impossible
    by construction: a homomorphism only counts for column ``i`` when
    the AND of its facts' provenances contains bit ``i``.

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
    across all four domains × {CQ, UCQ} × {cache on, off} × {thread,
    process}.

    **Subquery tabling** — candidate pools are sub-conjunction
    lattices with massive atom overlap, so the kernel tables the
    partial-match state of every canonical atom prefix (atoms in
    canonical sorted order, variables renamed by first appearance) in
    the shared :class:`~repro.engine.cache.EvaluationCache`
    (:meth:`~repro.engine.cache.EvaluationCache.subquery_tables`).
    Candidates sharing a two-atom prefix pay for it once; reuse is
    visible in ``CacheStats.subquery_hits`` / ``subquery_misses``.

    **Optimistic bounds** — :meth:`PoolMatchKernel.upper_bound_row`
    ANDs, per atom, the OR of the provenances of the facts the atom
    could match.  The result is a cheap superset of the true row, which
    :meth:`repro.core.best_describe.BestDescriptionSearch.top_k` turns
    into an optimistic Z-score for bound pruning.

Every verdict row of the default configuration comes out of this
kernel, wrapped by :class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel`;
``benchmarks/bench_match_kernel.py`` gates a ≥3× matrix-build speedup
over the per-pair Definition 3.4 oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Variable, is_constant, is_variable
from ..queries.ucq import UnionOfConjunctiveQueries


class UnifiedBorderIndex:
    """Columnar fact store merging many border ABoxes with provenance.

    *entries* pairs each border-column bit with that border's (strategy-
    appropriate) fact set.  Facts are deduplicated across borders; each
    keeps a provenance bitset of the columns it occurs in.
    """

    __slots__ = (
        "full_mask",
        "_by_predicate",
        "_by_position",
        "_row_ids",
        "_support_memo",
        "_stats",
    )

    def __init__(self, entries: Sequence[Tuple[int, FrozenSet[Atom]]], stats=None):
        provenance: Dict[Atom, int] = {}
        full_mask = 0
        for bit, facts in entries:
            flag = 1 << bit
            full_mask |= flag
            for fact in facts:
                provenance[fact] = provenance.get(fact, 0) | flag
        self.full_mask = full_mask
        # Columnar layout: per predicate, parallel argument-row and
        # provenance arrays; plus (predicate, position, constant) → row
        # ids for narrowing atoms with bound arguments, and (predicate →
        # argument row → row id) so :meth:`apply_patch` can find the
        # existing row of a re-added fact without scanning.
        by_predicate: Dict[str, Tuple[List[Tuple], List[int]]] = {}
        by_position: Dict[Tuple, List[int]] = {}
        row_ids: Dict[str, Dict[Tuple, int]] = {}
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
            row_ids.setdefault(fact.predicate, {})[fact.args] = row_id
            for position, argument in enumerate(fact.args):
                by_position.setdefault(
                    (fact.predicate, position, argument), []
                ).append(row_id)
        self._by_predicate = by_predicate
        self._by_position = by_position
        self._row_ids = row_ids
        # Support masks are memoized on the index itself: the index is
        # immutable, each atom's support is asked once per atom per query
        # (row bounds, generator pruning, upper bounds), and recomputing
        # it rescans every matching fact.  The memo key abstracts variable
        # names away — only the predicate and the constant pattern matter.
        self._support_memo: Dict[Tuple, int] = {}
        self._stats = stats

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

    def support(self, atom: Atom) -> int:
        """OR of the provenances of every fact that could match *atom*.

        Any border the atom maps into under *some* homomorphism is
        contained in this mask, which is what makes the per-atom AND of
        supports a sound upper bound on a query's verdict row.  Memoized
        per (predicate, arity, constant pattern) — hit/miss traffic is
        visible in ``CacheStats.support_hits`` / ``support_misses`` when
        the index carries a stats object.
        """
        const_positions = tuple(
            (position, argument)
            for position, argument in enumerate(atom.args)
            if is_constant(argument)
        )
        key = (atom.predicate, len(atom.args)) + const_positions
        union = self._support_memo.get(key)
        if union is not None:
            if self._stats is not None:
                self._stats.count("support_hits")
            return union
        if self._stats is not None:
            self._stats.count("support_misses")
        union = 0
        for args, mask in self.candidates(atom):
            if union | mask == union:
                continue
            if all(args[position] == argument for position, argument in const_positions):
                union |= mask
        self._support_memo[key] = union
        return union

    def apply_patch(
        self, entries: Sequence[Tuple[int, FrozenSet[Atom]]]
    ) -> FrozenSet[str]:
        """Replace the fact columns of the given bits **in place**.

        Database drift changes a few borders; rebuilding the whole
        merged index would repay the merge for every unchanged border.
        Instead each entry ``(bit, facts)`` swaps in the bit's new fact
        set: the bit is first cleared from every row's provenance
        (a row whose mask drops to zero becomes a **tombstone** — it
        stays in the columnar arrays but can never contribute to a join
        or a support mask, since survivors are computed by AND and
        supports by OR), then set on the rows of the new facts —
        **appending** fresh rows, with their ``(predicate, position,
        constant)`` narrowing entries, for facts the index has never
        held.  Memoized :meth:`support` entries whose predicate was
        touched by the patch are dropped; every other memo stays warm.
        Returns the touched predicates.
        """
        if not entries:
            return frozenset()
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
        for key in [k for k in self._support_memo if k[0] in touched_predicates]:
            del self._support_memo[key]
        return frozenset(touched_predicates)


class PoolMatchKernel:
    """One-pass verdict rows for a pool of candidates over merged borders.

    Built for one (evaluator, column layout) pair; a
    :class:`~repro.engine.batch_kernel.MultiLabelingBatchKernel` builds
    one over its merged global layout.  *bits* restricts the kernel
    to a subset of column positions (``apply_drift`` evaluates only the
    genuinely new columns through such a restricted kernel); the
    emitted rows then carry bits only at those positions.
    """

    def __init__(self, evaluator, columns, bits: Optional[Iterable[int]] = None):
        self.evaluator = evaluator
        self.columns = columns
        self._engine = evaluator.system.specification.engine
        self._cache = self._engine.cache
        self._strategy = self._engine.strategy
        self._bits: Tuple[int, ...] = tuple(
            range(columns.width) if bits is None else bits
        )
        self._index: Optional[UnifiedBorderIndex] = None
        # arity → {column tuple: its single column bit}; answers of the
        # wrong arity never match a column (the per-pair path's arity
        # short-circuit), so both maps are arity-partitioned.
        self._target_bits: Dict[int, Dict[Tuple, int]] = {}
        self._arity_masks: Dict[int, int] = {}
        self._tables: Dict[Tuple, Dict[Tuple, int]] = {}
        self._rewritten_support_memo: Dict[Tuple, int] = {}

    # -- index construction ------------------------------------------------

    def _border_facts(self, border) -> FrozenSet[Atom]:
        """The strategy-appropriate fact set of one border's ABox."""
        abox = self.evaluator._border_abox(border)
        if self._strategy == "chase":
            # Saturate per border (same memo key as the per-pair
            # path); merging *saturations* keeps provenance exact —
            # facts derived from two different borders never join
            # into a spurious single-border homomorphism because
            # their provenance AND is empty.
            return self._engine.saturate(abox).facts
        return abox.facts

    def _register_columns(self) -> None:
        for bit in self._bits:
            value = self.columns.tuples[bit]
            arity = len(value)
            targets = self._target_bits.setdefault(arity, {})
            targets[value] = targets.get(value, 0) | (1 << bit)
            self._arity_masks[arity] = self._arity_masks.get(arity, 0) | (1 << bit)

    def _bind_tables(self) -> None:
        if self._cache.enabled:
            # Content-addressed identity of this index: the column layout
            # key embeds every border's tuple, radius and atom layers, so
            # the tabled states stay sound across database content
            # changes; the strategy (and chase depth) select which fact
            # sets were merged.  Computing the key hashes whole borders —
            # skip it when the cache would hand back a private dict
            # anyway (same discipline as VerdictMatrix's row store).
            index_key = (
                "kernel_tables",
                self.columns.key(),
                self._bits if len(self._bits) != self.columns.width else "all",
                self._strategy,
                self._engine.chase_depth if self._strategy == "chase" else None,
            )
            self._tables = self._cache.subquery_tables(index_key)

    def _ensure_index(self) -> UnifiedBorderIndex:
        if self._index is not None:
            return self._index
        entries: List[Tuple[int, FrozenSet[Atom]]] = [
            (bit, self._border_facts(self.columns.borders[bit])) for bit in self._bits
        ]
        self._register_columns()
        self._index = UnifiedBorderIndex(entries, stats=self._cache.stats)
        self._bind_tables()
        return self._index

    # -- rows --------------------------------------------------------------

    def row(self, query) -> int:
        """The full verdict bitset of one query over the covered columns."""
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
        if self._strategy == "rewriting":
            # The per-pair path evaluates the perfect rewriting over each
            # border's retrieved ABox; here each rewritten disjunct makes
            # one unified pass instead.
            row = 0
            full = self._arity_masks[query.arity]
            for disjunct in self._cache.rewriting(query).disjuncts:
                row |= self._cq_row(disjunct, targets, index)
                if row == full:
                    break
            return row
        return self._cq_row(query, targets, index)

    def rows(self, queries: Sequence) -> List[int]:
        """Verdict rows for a whole pool (tabled prefixes shared across it)."""
        return [self.row(query) for query in queries]

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

    # -- optimistic bounds -------------------------------------------------

    def upper_bound_row(self, query) -> int:
        """A cheap superset of ``row(query)``: per-atom provenance OR, ANDed.

        If the query J-matches border ``i``, every body atom maps into a
        fact of border ``i`` matching the atom's predicate and
        constants, so ``i`` survives each atom's support mask; the AND
        over atoms (restricted to arity-compatible columns) is therefore
        an upper bound — the raw material of top-k bound pruning.
        """
        if isinstance(query, UnionOfConjunctiveQueries):
            union_bound = 0
            for disjunct in query.disjuncts:
                union_bound |= self.upper_bound_row(disjunct)
            return union_bound
        index = self._ensure_index()
        arity_mask = self._arity_masks.get(query.arity, 0)
        if not arity_mask:
            return 0
        if self._strategy == "rewriting":
            bound = 0
            for disjunct in self._cache.rewriting(query).disjuncts:
                bound |= self._cq_bound(disjunct, arity_mask, index)
                if bound == arity_mask:
                    break
            return bound
        return self._cq_bound(query, arity_mask, index)

    def _cq_bound(self, cq: ConjunctiveQuery, arity_mask: int, index) -> int:
        bound = arity_mask
        for atom in cq.body:
            bound &= index.support(atom)
            if not bound:
                break
        return bound

    # -- generator-facing provenance supports ------------------------------

    def index(self) -> UnifiedBorderIndex:
        """The unified border index (built on first access)."""
        return self._ensure_index()

    def atom_provenance_support(self, atom: Atom) -> int:
        """Borders a *query* atom could possibly map into, strategy-aware.

        Under the chase strategy the index already stores saturated
        facts, so the raw index support is the answer.  Under the
        rewriting strategy a query atom can be satisfied through a
        rewritten disjunct whose atoms differ from the original (e.g.
        ``likes(x, y)`` satisfied by a ``studies`` fact), so the raw
        support would be *unsound* as a pruning bound; instead the
        single-atom query over the atom's variables is perfectly
        rewritten (memoized in the shared cache) and the support is the
        OR over its disjuncts of each disjunct's support AND.  Either
        way the result is a superset of the borders any homomorphism of
        a body containing *atom* can lie in — the raw material of
        generator-level pruning (:class:`ProvenancePruner`).
        """
        index = self._ensure_index()
        if self._strategy != "rewriting":
            return index.support(atom)
        key = (atom.predicate, len(atom.args)) + tuple(
            (position, argument)
            for position, argument in enumerate(atom.args)
            if is_constant(argument)
        )
        support = self._rewritten_support_memo.get(key)
        if support is None:
            variables = tuple(
                dict.fromkeys(
                    argument for argument in atom.args if is_variable(argument)
                )
            )
            single = ConjunctiveQuery(variables, (atom,))
            support = 0
            full = index.full_mask
            for disjunct in self._cache.rewriting(single).disjuncts:
                disjunct_bound = full
                for rewritten in disjunct.body:
                    disjunct_bound &= index.support(rewritten)
                    if not disjunct_bound:
                        break
                support |= disjunct_bound
                if support == full:
                    break
            self._rewritten_support_memo[key] = support
        return support

    def __str__(self):
        return (
            f"PoolMatchKernel({self.columns}, bits={len(self._bits)}, "
            f"strategy={self._strategy!r})"
        )


class ProvenancePruner:
    """Generator-level pruning oracle over per-atom provenance supports.

    Wraps one labeling's :class:`PoolMatchKernel` and answers, for a
    candidate *body* that has not been materialised into a query yet,
    whether it could possibly produce a non-zero verdict row: the AND of
    the body atoms' provenance supports
    (:meth:`PoolMatchKernel.atom_provenance_support`) is a superset of
    the true row, so a zero bound proves the row is zero *before* the
    query is built, deduplicated, or handed to the verdict matrix.  The
    bottom-up generator (:meth:`repro.core.candidates.CandidateGenerator.generate`)
    and the top-down refinement search
    (:class:`repro.core.refinement.RefinementSearch`) both accept one.

    Soundness of *dropping* a zero-bound candidate is the caller's
    responsibility: all zero-row candidates score identically, so
    :meth:`repro.core.best_describe.BestDescriptionSearch.search` only
    keeps a pruned pool when the exact k-th score is strictly above the
    zero-row floor score (and regenerates exhaustively otherwise).
    ``checked`` / ``pruned`` counters make the reduction reportable.
    """

    __slots__ = ("kernel", "columns", "selection", "checked", "pruned")

    def __init__(self, kernel: PoolMatchKernel, columns, selection=None):
        # ``selection`` maps local column bits to the kernel's bit space
        # (needed when the kernel is a batch kernel's *global* kernel,
        # whose columns are a merged superset of this layout's).  With a
        # per-layout kernel the spaces coincide and it stays None.
        self.kernel = kernel
        self.columns = columns
        self.selection = selection
        self.checked = 0
        self.pruned = 0

    def body_bound(self, atoms: Iterable[Atom]) -> int:
        """AND of the body atoms' supports — a superset of the true row.

        Expressed in this layout's *local* bit space (sliced through
        ``selection`` when the kernel's space is wider).
        """
        bound = self.kernel.index().full_mask
        for atom in atoms:
            bound &= self.kernel.atom_provenance_support(atom)
            if not bound:
                break
        if self.selection is not None and bound:
            local = 0
            for bit, position in enumerate(self.selection):
                local |= ((bound >> position) & 1) << bit
            bound = local
        return bound

    def admits(self, atoms: Iterable[Atom]) -> bool:
        """Whether the body could match *any* border column (counts traffic)."""
        self.checked += 1
        if self.body_bound(atoms):
            return True
        self.pruned += 1
        return False

    def admits_positive(self, atoms: Iterable[Atom]) -> bool:
        """Whether the body could match any *positive* border column.

        A ``False`` proves true-positive count zero — exactly the
        condition the refinement search's ``prune_zero_coverage`` tests
        by evaluating a full profile, so the beam search can discard the
        refinement without ever J-matching it.
        """
        self.checked += 1
        if self.body_bound(atoms) & self.columns.positives_mask:
            return True
        self.pruned += 1
        return False

    def __str__(self):
        return (
            f"ProvenancePruner(checked={self.checked}, pruned={self.pruned}, "
            f"columns={self.columns})"
        )
