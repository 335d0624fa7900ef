"""The shared evaluation cache behind certain-answer computation.

The best-description search asks the same expensive questions over and
over: *saturate this border's ABox*, *rewrite this query*, *does this
query J-match this border?*.  The seed engine recomputed the first on
every chase-strategy call and the last on every profile evaluation.
:class:`EvaluationCache` memoizes all three layers behind one object
that is shared by every evaluator working against the same OBDM
specification:

* **saturated chase indexes** — keyed by the ABox's fact set, so each
  distinct (border or full) ABox is chased exactly once;
* **perfect rewritings** — keyed by the query's canonical signature
  (:func:`repro.queries.ucq.query_key`);
* **retrieved border ABoxes** — keyed by the border's source atoms
  (for the per-pair oracle, candidate generation, refinement,
  separability and the chase strategy's kernel; the default kernel
  reads the derivation table directly);
* **J-match verdicts** — keyed by query signature × border (the border
  value embeds its tuple, radius and atom layers, so keys are
  content-addressed and stay valid even if the source database mutates);
* **the verdict column store** — the same verdicts stored column-major
  for the verdict-row engine (:class:`VerdictStore`): a bounded query
  registry (query key → dense id → query) and, per border value, one
  bitset of the ids evaluated on it and one of the ids that matched it.
  A column layout's rows are a gather over its columns, so a border any
  earlier layout evaluated is never re-matched (see
  :mod:`repro.engine.verdicts`);
* **kernel subquery tables** — partial-match provenance bitsets of
  canonical atom prefixes, keyed by unified-border-index identity ×
  prefix signature (see :mod:`repro.engine.kernel`), so candidates that
  share a join prefix pay for it once;
* **the constant interner** — one dense int id per constant
  (:class:`ConstantInterner`), append-only for the life of the cache.
  The derivation table encodes each derived fact through it once, and
  the match kernel's index, joins and subquery-table keys run on those
  ids;
* **the derivation table** — for the current database content (keyed
  by :meth:`~repro.obdm.database.SourceDatabase.fingerprint`), every
  mapping derivation over the source facts covered so far, each with
  its witness and its derived fact encoded (:class:`DerivationTable`;
  the deriver the matching layer injects runs the mapping's compiled
  plans straight on interned ids, and atoms are decoded only for
  per-border ABoxes).  One provenance pass over it gives every
  retrieved fact of a batch of borders the bitset of the borders whose
  ABox holds it (witness containment), so a batch costs at most one
  mapping pass over its *uncovered* source facts, and borders already
  covered cost none;
* **the candidate table** — each border's bottom-up candidate queries
  (:meth:`~repro.core.candidates.CandidateGenerator.candidates_for`),
  keyed by the border × the generation shape (``max_atoms``,
  ``max_kept_constants``), so a positive that recurs across requests
  and labelings is abstracted once.  A database delta drops the entries
  of the borders it touches (:meth:`EvaluationCache.invalidate_borders`);
  snapshots leave the table out.

All keys are content-addressed (frozen values, not object identities),
which is what makes the cache safely shareable between evaluators,
labelings and worker threads: a hit can never observe stale state, only
skip recomputation.  Mutating dict entries under CPython is atomic, and
the expensive saturation path additionally takes a per-key lock so
concurrent scorers do not chase the same ABox twice.

The computation itself is *injected* (the cache never imports the chase
or the rewriter), keeping this module at the bottom of the dependency
stack: ``repro.obdm.certain_answers`` plugs in its own saturator and
rewriter when it builds its cache.

Lifecycle (for long-lived services, :mod:`repro.service`)
---------------------------------------------------------

A one-shot batch computation can let the memos grow without bound; a
resident service cannot.  Three lifecycle features keep a warm cache
useful across millions of requests:

* **bounded layers** — :class:`CacheLimits` caps the entry count of the
  expensive layers (saturations, border ABoxes, the verdict store's
  query registry and J-match verdicts; the candidate table and the
  verdict store's columns share the ``border_aboxes`` cap, one entry per
  border) with per-layer LRU eviction (:class:`LRUStore`,
  :class:`VerdictStore`); evictions are counted in
  :attr:`CacheStats.evictions` and the current occupancy is reported by
  :meth:`EvaluationCache.size_report`;
* **snapshot persistence** — :meth:`EvaluationCache.save` writes the
  content-addressed memo state to disk and
  :meth:`EvaluationCache.load` merges it back, so a restarted service
  starts warm.  Only values are persisted, never the injected
  callables, and the snapshot is version-stamped;
* **copy-out reads** — a :class:`~repro.engine.verdicts.VerdictMatrix`
  copies the cells it gathers into rows of its own, so evicting a query
  or a column from the verdict store only costs a later layout a
  recomputation; no consumer ever holds a reference into the store.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from ..queries.atoms import Atom
from ..queries.evaluation import FactIndex
from ..queries.terms import Constant
from ..queries.ucq import query_key

Saturator = Callable[[FrozenSet[Atom]], Iterable[Atom]]
Deriver = Callable[
    [FrozenSet[Atom], FrozenSet[Atom], "ConstantInterner"],
    Iterable[Tuple[Atom, Iterable[Tuple["EncodedFact", FrozenSet[Atom]]]]],
]
"""``derive(fresh, scope, interner)``: one witnessed mapping pass, as
``(source fact, [(encoded derived fact, rest of the witness), ...])``
groups (see :meth:`DerivationTable.cover`)."""

SNAPSHOT_VERSION = 2
SNAPSHOT_MAGIC = "repro-evaluation-cache"


class VerdictPolicy:
    """Selects between the verdict-row engine and the Definition 3.4 oracle.

    When ``enabled`` (the default), :class:`~repro.core.best_describe.QueryScorer`
    computes match profiles through a
    :class:`~repro.engine.verdicts.VerdictMatrix` — one bitset row per
    candidate, criteria as popcount arithmetic.  Disabling it selects
    the per-pair oracle (``MatchEvaluator.profile`` →
    ``matches_border``: one certain-answer question per (query, border)
    pair), which the differential suites and the end-to-end benchmark's
    reference digests compare against.  Every
    :class:`~repro.obdm.certain_answers.CertainAnswerEngine` owns one
    (``specification.engine.verdicts``), next to its evaluation cache.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def __str__(self):
        return f"VerdictPolicy(enabled={self.enabled})"


class CacheStats:
    """Hit/miss/eviction counters per memo layer (benchmark observability).

    Increments go through a lock: ``+=`` on an attribute is a
    read-modify-write that can drop counts when threads share the cache,
    as the gateway's worker threads do.
    """

    _COUNTERS = (
        "saturation_hits",
        "saturation_misses",
        "rewriting_hits",
        "rewriting_misses",
        "border_abox_hits",
        "border_abox_misses",
        "match_hits",
        "match_misses",
        "verdict_row_hits",
        "verdict_row_misses",
        "verdict_cells_evaluated",
        "verdict_cells_reused",
        "subquery_hits",
        "subquery_misses",
        "batch_dispatches",
        "batch_rows",
        "mapping_passes",
        "mapping_facts_read",
        "candidate_hits",
        "candidate_misses",
        "evictions",
        "delta_invalidations",
    )

    def __init__(self):
        self._lock = threading.Lock()
        for counter in self._COUNTERS:
            setattr(self, counter, 0)

    def count(self, *counters: str) -> None:
        """Increment one or more counters under a single lock acquisition.

        Multi-counter bumps (e.g. a request counter plus its outcome
        counter) are atomic as a group: a concurrent reader can never
        observe one without the other, and concurrent writers can never
        lose increments to a read-modify-write race.
        """
        with self._lock:
            for counter in counters:
                setattr(self, counter, getattr(self, counter) + 1)

    def merge(self, deltas: Dict[str, int]) -> None:
        """Add a dict of increments under a single lock acquisition.

        The kernel, the verdict fill and the stores report several
        counters of one step together through it.  Unknown keys are
        ignored.
        """
        with self._lock:
            for counter, value in deltas.items():
                if counter in self._COUNTERS and value:
                    setattr(self, counter, getattr(self, counter) + value)

    def as_dict(self) -> Dict[str, int]:
        return {counter: getattr(self, counter) for counter in self._COUNTERS}

    def delta_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since *baseline* (an :meth:`as_dict` snapshot)."""
        return {
            counter: getattr(self, counter) - baseline.get(counter, 0)
            for counter in self._COUNTERS
        }

    def __str__(self):
        rendered = ", ".join(f"{key}={value}" for key, value in self.as_dict().items())
        return f"{type(self).__name__}({rendered})"


@dataclass(frozen=True)
class CacheLimits:
    """Per-layer entry caps for a long-lived cache (``None`` = unbounded).

    The rewriting memo stays unbounded on purpose: rewritings are tiny,
    few (one per canonical query signature) and the seed engine already
    kept them forever.  The bounded layers are the ones that grow with
    traffic — distinct ABoxes, borders, candidate queries and (query,
    border) pairs.  ``border_aboxes`` also caps the candidate table,
    which holds one entry per border and generation shape, and the
    verdict store's columns, one per border.
    """

    saturations: Optional[int] = None
    border_aboxes: Optional[int] = None
    verdict_queries: Optional[int] = None
    """Cap on the queries registered in the verdict store; evicting one
    clears its cells from every column."""
    matches: Optional[int] = None
    subqueries: Optional[int] = None
    """Cap on resident kernel *table sets* (one per unified border index);
    evicting one drops every partial-match bitset tabled under it."""

    def __str__(self):
        return (
            f"CacheLimits(saturations={self.saturations}, "
            f"border_aboxes={self.border_aboxes}, "
            f"verdict_queries={self.verdict_queries}, matches={self.matches}, "
            f"subqueries={self.subqueries})"
        )


def _check_capacity(capacity: Optional[int]) -> None:
    if capacity is not None and capacity < 1:
        raise ValueError(f"capacity must be >= 1 or None, got {capacity}")


class LRUStore:
    """A thread-safe memo store with optional LRU bounding.

    Backed by an :class:`collections.OrderedDict`; a hit refreshes the
    entry's recency, an insert beyond ``capacity`` evicts the least
    recently used entry and reports it to the shared
    :class:`CacheStats.evictions` counter.  With ``capacity=None`` the
    store behaves like the unbounded dicts it replaced.
    """

    def __init__(self, capacity: Optional[int] = None, stats: Optional[CacheStats] = None):
        _check_capacity(capacity)
        self.capacity = capacity
        self._stats = stats
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    # -- dict-like access -------------------------------------------------

    def get(self, key: Hashable, touch: bool = True):
        with self._lock:
            if key not in self._entries:
                return None
            if touch:
                self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_over_capacity()

    def get_or_create(self, key: Hashable, factory: Callable[[], object]):
        """The entry under *key*, created (and recency-refreshed) atomically."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            value = self._entries[key] = factory()
            self._evict_over_capacity()
            return value

    def _evict_over_capacity(self) -> None:
        # Caller holds the lock.  (CacheStats has its own lock and never
        # takes ours, so counting from here cannot deadlock.)
        if self.capacity is None:
            return
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            if self._stats is not None:
                self._stats.count("evictions")

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Change the bound, evicting LRU entries already over it."""
        _check_capacity(capacity)
        with self._lock:
            self.capacity = capacity
            self._evict_over_capacity()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> List[Tuple[Hashable, object]]:
        """A snapshot of (key, value) pairs, oldest first."""
        with self._lock:
            return list(self._entries.items())

    def merge_missing(self, entries: Iterable[Tuple[Hashable, object]]) -> int:
        """Insert entries that are not yet present; returns how many were.

        Used by snapshot loading: live entries always win over persisted
        ones (they are newer), and merged entries respect the capacity
        bound.  Persisted entries enter at the *cold* end of the LRU
        order — when live + persisted overflow the capacity, the
        snapshot overflow evicts itself, never a hotter live entry.
        *entries* is expected oldest-first (an :meth:`items` snapshot);
        front-inserting in reverse preserves that order among the
        persisted cohort, so the hottest persisted entries are the last
        of the cohort to be evicted.
        """
        inserted: List[Hashable] = []
        with self._lock:
            for key, value in reversed(list(entries)):
                if key not in self._entries:
                    self._entries[key] = value
                    self._entries.move_to_end(key, last=False)
                    inserted.append(key)
                    self._evict_over_capacity()
            # Cold inserts may evict themselves (or an earlier cold
            # insert) at capacity; only survivors count as added, so
            # callers are never told the cache is warmer than it is.
            return sum(1 for key in inserted if key in self._entries)

    def discard_where(self, predicate: Callable[[Hashable, object], bool]) -> int:
        """Drop every entry matching *predicate*; returns how many did.

        The delta-invalidation primitive: unlike capacity eviction this
        is *targeted* (entries whose provenance a database delta can
        touch), so it does not count into ``evictions``.
        """
        with self._lock:
            doomed = [key for key, value in self._entries.items() if predicate(key, value)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def _id_mask(ids) -> int:
    """The bitset (a Python int) with exactly the bits *ids* set."""
    if not len(ids):
        return 0
    bits = _np.zeros(int(_np.max(ids)) + 1, dtype=_np.uint8)
    bits[ids] = 1
    return int.from_bytes(_np.packbits(bits, bitorder="little").tobytes(), "little")


class VerdictStore:
    """J-match verdicts keyed by (query, border), stored column-major.

    A verdict (Definition 3.4) depends only on the query and the border
    — the border value embeds its tuple, radius and atoms — so verdicts
    computed for one column layout serve every other layout over the
    same borders.  The store keeps a **query registry** (query key →
    dense id → query, in LRU order) and, per border value, one
    **column**: the bitset of the ids evaluated on that border and the
    bitset of those that matched it (matched ⊆ evaluated).  A layout's
    rows are a gather over its columns (:meth:`gather`); only cells no
    one has evaluated need the kernel, and :meth:`write` records them.

    ``capacity`` caps the registered queries and ``column_capacity`` the
    resident columns; each evicts least recently used entries, counted
    one by one in ``stats.evictions``.  An evicted query's bit is
    cleared in every column before its id is handed out again.  One lock
    guards every method, and ids never leave it: callers address queries
    by key, so a write resolves ids afresh and cannot land on an id that
    changed hands while the kernel ran.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        column_capacity: Optional[int] = None,
        stats: Optional[CacheStats] = None,
    ):
        _check_capacity(capacity)
        _check_capacity(column_capacity)
        self.capacity = capacity
        self.column_capacity = column_capacity
        self._stats = stats
        self._ids: "OrderedDict[Hashable, int]" = OrderedDict()
        self._queries: Dict[int, object] = {}
        # Ids freed by eviction, already cleared from every column.
        self._free: List[int] = []
        self._next_id = 0
        # Border → [evaluated ids, matched ids], in LRU order.
        self._columns: "OrderedDict[Hashable, List[int]]" = OrderedDict()
        self._lock = threading.Lock()

    # -- registry and columns (the caller holds the lock) -----------------

    def _evicted(self, count: int) -> None:
        if count and self._stats is not None:
            self._stats.merge({"evictions": count})

    def _add(self, key: Hashable, query) -> int:
        if self._free:
            ident = self._free.pop()
        else:
            ident = self._next_id
            self._next_id += 1
        self._ids[key] = ident
        self._queries[ident] = query
        return ident

    def _register(self, entries: Iterable[Tuple[Hashable, object]]) -> None:
        evicted: List[int] = []
        for key, query in entries:
            if key in self._ids:
                self._ids.move_to_end(key)
                continue
            self._add(key, query)
            evicted.extend(self._over_capacity())
        self._release(evicted)

    def _over_capacity(self) -> List[int]:
        evicted: List[int] = []
        while self.capacity is not None and len(self._ids) > self.capacity:
            _key, ident = self._ids.popitem(last=False)
            del self._queries[ident]
            evicted.append(ident)
        return evicted

    def _release(self, idents: List[int]) -> None:
        """Clear evicted ids from every column, then free them for reuse."""
        if not idents:
            return
        keep = ~_id_mask(idents)
        for column in self._columns.values():
            column[0] &= keep
            column[1] &= keep
        self._free.extend(idents)
        self._evicted(len(idents))

    def _column(self, border: Hashable) -> List[int]:
        column = self._columns.get(border)
        if column is not None:
            self._columns.move_to_end(border)
            return column
        column = self._columns[border] = [0, 0]
        self._trim_columns()
        return column

    def _trim_columns(self) -> None:
        evicted = 0
        while self.column_capacity is not None and len(self._columns) > self.column_capacity:
            self._columns.popitem(last=False)
            evicted += 1
        self._evicted(evicted)

    # -- cells --------------------------------------------------------------

    def gather(self, borders: Sequence[Hashable], keys: Sequence[Hashable]):
        """The evaluated and matched bit of every (key, border) cell.

        Returns two ``(len(keys), len(borders))`` 0/1 ``uint8`` matrices
        read in one locked snapshot.  Unregistered keys and absent
        columns read as unevaluated; registered keys and present columns
        are recency-refreshed.
        """
        with self._lock:
            # Position ``_next_id`` is a bit no column has ever held.
            positions = []
            for key in keys:
                ident = self._ids.get(key)
                if ident is not None:
                    self._ids.move_to_end(key)
                positions.append(self._next_id if ident is None else ident)
            columns = []
            for border in borders:
                column = self._columns.get(border)
                if column is not None:
                    self._columns.move_to_end(border)
                columns.append(column or (0, 0))
            nbytes = self._next_id // 8 + 1
            buffer = b"".join(
                value.to_bytes(nbytes, "little")
                for index in (0, 1)
                for value in (column[index] for column in columns)
            )
        bits = _np.unpackbits(
            _np.frombuffer(buffer, dtype=_np.uint8).reshape(2 * len(columns), nbytes),
            axis=1,
            bitorder="little",
        )[:, positions]
        return bits[: len(columns)].T.copy(), bits[len(columns) :].T.copy()

    def write(self, borders: Sequence[Hashable], queries: Sequence[Tuple], evaluated, matched) -> None:
        """Record kernel verdicts: ``queries[i]`` — a ``(key, query)`` pair
        — was evaluated on ``borders[j]`` where ``evaluated[i, j]`` is
        set, and matched it where ``matched[i, j]`` is.

        Ids are resolved here, registering new keys; a key whose fresh
        registration a later key of the same write evicts again is
        skipped (its verdicts are simply not kept).
        """
        with self._lock:
            self._register(queries)
            live = [index for index, (key, _) in enumerate(queries) if key in self._ids]
            if not live:
                return
            ids = _np.array([self._ids[queries[index][0]] for index in live])
            evaluated = evaluated[live].astype(bool)
            matched = matched[live].astype(bool) & evaluated
            for position, border in enumerate(borders):
                done = evaluated[:, position]
                if not done.any():
                    continue
                done_mask = _id_mask(ids[done])
                column = self._column(border)
                column[0] |= done_mask
                column[1] = (column[1] & ~done_mask) | _id_mask(ids[matched[:, position]])

    def queries(self, keys: Iterable[Hashable]) -> List:
        """The registered query of each key, in order (unregistered keys skipped)."""
        with self._lock:
            return [self._queries[self._ids[key]] for key in keys if key in self._ids]

    # -- lifecycle ----------------------------------------------------------

    def set_limits(self, capacity: Optional[int], column_capacity: Optional[int]) -> None:
        """Change both bounds, evicting LRU entries already over them."""
        _check_capacity(capacity)
        _check_capacity(column_capacity)
        with self._lock:
            self.capacity = capacity
            self.column_capacity = column_capacity
            self._release(self._over_capacity())
            self._trim_columns()

    def discard_borders(self, borders) -> int:
        """Drop the columns of *borders* (delta invalidation, not eviction)."""
        with self._lock:
            doomed = [border for border in borders if border in self._columns]
            for border in doomed:
                del self._columns[border]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._ids.clear()
            self._queries.clear()
            self._free.clear()
            self._next_id = 0
            self._columns.clear()

    def sizes(self) -> Dict[str, int]:
        """Registered queries, resident columns, and queries with a cell."""
        with self._lock:
            evaluated = 0
            for column in self._columns.values():
                evaluated |= column[0]
            return {
                "verdict_queries": len(self._ids),
                "verdict_columns": len(self._columns),
                "verdict_rows": evaluated.bit_count(),
            }

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> Tuple[List[Tuple], List[Tuple]]:
        """``(key, id, query)`` and ``(border, evaluated, matched)`` lists, oldest first."""
        with self._lock:
            return (
                [(key, ident, self._queries[ident]) for key, ident in self._ids.items()],
                [(border, column[0], column[1]) for border, column in self._columns.items()],
            )

    def merge(self, queries: Sequence[Tuple], columns: Sequence[Tuple]) -> int:
        """Merge a :meth:`snapshot`; returns how many queries gained a cell.

        Persisted ids are remapped into the live registry.  Live entries
        win: a live key keeps its id and a live cell its value.
        Persisted queries and columns enter at the *cold* end and only
        while there is room under the caps, so a snapshot never evicts
        live heat; both lists are walked hottest first, so the hottest
        persisted entries are the ones that get in.
        """
        with self._lock:
            remap: Dict[int, int] = {}
            for key, persisted, query in reversed(queries):
                ident = self._ids.get(key)
                if ident is None:
                    if self.capacity is not None and len(self._ids) >= self.capacity:
                        continue
                    ident = self._add(key, query)
                    self._ids.move_to_end(key, last=False)
                remap[persisted] = ident

            def remapped(bits: int) -> int:
                ids = []
                while bits:
                    lowest = bits & -bits
                    ident = remap.get(lowest.bit_length() - 1)
                    if ident is not None:
                        ids.append(ident)
                    bits ^= lowest
                return _id_mask(ids)

            gained = 0
            for border, evaluated, matched in reversed(columns):
                column = self._columns.get(border)
                if column is None:
                    if self.column_capacity is not None and len(self._columns) >= self.column_capacity:
                        continue
                    column = self._columns[border] = [0, 0]
                    self._columns.move_to_end(border, last=False)
                fresh = remapped(evaluated) & ~column[0]
                column[0] |= fresh
                column[1] |= remapped(matched) & fresh
                gained |= fresh
            return gained.bit_count()

    def __str__(self):
        return (
            f"VerdictStore(queries={len(self._ids)}, columns={len(self._columns)}, "
            f"capacity={self.capacity}, column_capacity={self.column_capacity})"
        )


EncodedFact = Tuple[str, Tuple[int, ...]]
"""A fact as the match kernel stores it: its predicate and the interned
id of each argument (see :class:`ConstantInterner`)."""


class ConstantInterner:
    """Dense integer ids for constants, one table per evaluation cache.

    Keyed by the :class:`~repro.queries.terms.Constant` itself, never by
    its raw value, so ids follow the constants' type-tagged equality:
    ``Constant(True)`` and ``Constant(1)`` get different ids, while
    ``Constant(1)`` and ``Constant(1.0)`` share one.  Append-only: an id
    is never reassigned while the cache lives, because the kernel's
    subquery tables are keyed by borders, not by database content, and
    outlive deltas.  Inserts take a lock, since a dict insert whose key
    hashes and compares in Python code is not atomic; lookups of
    interned constants take none.
    """

    def __init__(self):
        self._ids: Dict[Constant, int] = {}
        self._constants: List[Constant] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._constants)

    def id(self, constant: Constant) -> int:
        """The id of *constant*, interning it on first sight."""
        ident = self._ids.get(constant)
        if ident is None:
            with self._lock:
                ident = self._ids.get(constant)
                if ident is None:
                    ident = len(self._constants)
                    # The id is readable before it is findable.
                    self._constants.append(constant)
                    self._ids[constant] = ident
        return ident

    def ids(self, constants: Sequence[Constant]) -> Tuple[int, ...]:
        """The id of each of *constants*, interning those not seen yet."""
        found = self._ids.get
        ids = [found(constant) for constant in constants]
        if None in ids:
            ids = [
                self.id(constant) if ident is None else ident
                for constant, ident in zip(constants, ids)
            ]
        return tuple(ids)

    def encode(self, fact: Atom) -> EncodedFact:
        """*fact* (a ground atom) as ``(predicate, argument ids)``."""
        return fact.predicate, self.ids(fact.args)

    def decode(self, fact: EncodedFact) -> Atom:
        """The ground atom an :meth:`encode` result stands for."""
        predicate, ids = fact
        return Atom(predicate, tuple(self._constants[ident] for ident in ids))


class DerivationTable:
    """Tabled mapping derivations of one database content, with witnesses.

    The table *covers* a growing set of source facts and holds exactly
    the derivations whose witnesses lie inside it: each derived ontology
    fact with the set of source facts one derivation read.  Mappings
    are monotone, so the ABox retrieved from a sub-database ``B`` of the
    covered facts is the set of facts with some witness inside ``B``,
    which needs no mapping evaluation at all.  :meth:`provenance`
    decides it for many sub-databases in one pass, one bit each, keyed
    by each derived fact's encoding under the table's
    :class:`ConstantInterner` (the match kernel's index is built
    straight from it); :meth:`border_facts` projects it to one fact set
    per sub-database.  The deriver hands every derived fact over
    already encoded, so :meth:`cover` builds no atom; :meth:`border_facts`
    decodes a fact through the interner the first time it needs it and
    keeps the atom.
    :meth:`cover` extends the table by the fresh facts only, so a batch
    of borders costs at most one mapping pass over the facts no earlier
    batch covered.

    Extension runs under a lock and publishes copy-on-write (derivation
    tuples are replaced, never appended to, and the covered set is
    swapped last), so a concurrent reader can never see a fact covered
    before its derivations are stored.  The table is bounded by the
    database: at most every derivation of the covered facts.  A table
    built without an *interner* (outside an evaluation cache) keeps a
    private one.
    """

    def __init__(
        self,
        fingerprint: Optional[str] = None,
        stats: Optional[CacheStats] = None,
        interner: Optional[ConstantInterner] = None,
    ):
        self.fingerprint = fingerprint
        self._stats = stats
        self.interner = ConstantInterner() if interner is None else interner
        self._covered: FrozenSet[Atom] = frozenset()
        # Source fact → (encoded derived fact, the rest of its witness)
        # for every derivation filed under it.  A derivation is filed
        # under one fact of its witness: it can only hold in a set
        # containing that fact, so provenance() finds it from there.
        self._by_source: Dict[Atom, Tuple[Tuple[EncodedFact, FrozenSet[Atom]], ...]] = {}
        # Encoded derived fact → its atom, decoded on border_facts' first need.
        self._facts: Dict[EncodedFact, Atom] = {}
        self.derivations = 0
        self._lock = threading.Lock()

    @property
    def covered(self) -> FrozenSet[Atom]:
        return self._covered

    def cover(self, facts: FrozenSet[Atom], derive: Deriver, local: bool) -> None:
        """Table every derivation whose witness lies inside *facts*.

        *derive(fresh, scope, interner)* is one witnessed mapping pass
        over the sub-database *scope*: it yields ``(source, entries)``
        groups, each entry ``(encoded fact, others)`` one derivation of
        the fact (encoded under *interner*) with witness ``{source} ∪
        others``; an entry repeated under one source is tabled once.
        With *local* — every witness is one source fact — the
        scope is just the fresh facts; otherwise it is covered ∪ fresh,
        and only the witnesses meeting the fresh facts are new.
        """
        if self._covered.issuperset(facts):
            return
        with self._lock:
            fresh = facts - self._covered
            if not fresh:
                return
            scope = fresh if local else self._covered | fresh
            if self._stats is not None:
                self._stats.merge({"mapping_passes": 1, "mapping_facts_read": len(scope)})
            added: Dict[Atom, set] = {}
            for source, entries in derive(fresh, scope, self.interner):
                if not local and source not in fresh:
                    entries = [entry for entry in entries if not entry[1].isdisjoint(fresh)]
                filed = added.get(source)
                if filed is None:
                    added[source] = set(entries)
                else:
                    filed.update(entries)
            by_source = self._by_source
            for source, entries in added.items():
                if entries:
                    self.derivations += len(entries)
                    by_source[source] = by_source.get(source, ()) + tuple(entries)
            self._covered = self._covered | fresh

    def provenance(self, atom_sets: Sequence[FrozenSet[Atom]]) -> Dict[EncodedFact, int]:
        """Each retrieved fact of the (covered) source-fact sets → its set mask.

        Facts are keyed by their encoding (:meth:`ConstantInterner.encode`
        under :attr:`interner`).  Bit ``i`` of a fact's mask is set iff
        the fact belongs to ``atom_sets[i]``'s ABox, that is iff some
        witness of it lies inside ``atom_sets[i]``.  One pass decides
        this for every set at once: each source fact gets the mask of
        the sets containing it, and each tabled derivation contributes
        the AND of its witness facts' masks to the derived fact's mask.
        """
        membership: Dict[Atom, int] = {}
        for bit, atoms in enumerate(atom_sets):
            flag = 1 << bit
            for source in atoms:
                membership[source] = membership.get(source, 0) | flag
        by_source = self._by_source
        masks: Dict[EncodedFact, int] = {}
        for source, mask in membership.items():
            for fact, others in by_source.get(source, ()):
                derived = mask
                for other in others:
                    derived &= membership.get(other, 0)
                if derived:
                    masks[fact] = masks.get(fact, 0) | derived
        return masks

    def border_facts(self, atom_sets: Sequence[FrozenSet[Atom]]) -> List[FrozenSet[Atom]]:
        """The retrieved ABox facts of each (covered) source-fact set.

        The per-set projection of :meth:`provenance`, each fact decoded
        through the interner once per table.
        """
        facts = self._facts
        decode = self.interner.decode
        members: List[List[Atom]] = [[] for _ in atom_sets]
        for encoded, mask in self.provenance(atom_sets).items():
            fact = facts.get(encoded)
            if fact is None:
                fact = facts[encoded] = decode(encoded)
            while mask:
                low = mask & -mask
                members[low.bit_length() - 1].append(fact)
                mask ^= low
        return [frozenset(found) for found in members]

    def __str__(self):
        return (
            f"DerivationTable(covered={len(self._covered)}, "
            f"derivations={self.derivations})"
        )


class EvaluationCache:
    """Content-addressed memoization shared by all evaluators of one ``J``.

    Parameters
    ----------
    saturator:
        Maps a frozenset of ABox facts to the saturated (chased) fact
        set.  Called at most once per distinct ABox (per saturation key).
    rewriter:
        Maps an ontology query to its perfect rewriting.  Called at most
        once per canonical query signature.
    limits:
        Optional :class:`CacheLimits` bounding the hot layers with LRU
        eviction; reconfigurable later via :meth:`configure_limits`.
    """

    def __init__(
        self,
        saturator: Saturator,
        rewriter: Callable,
        limits: Optional[CacheLimits] = None,
    ):
        self._saturator = saturator
        self._rewriter = rewriter
        self.stats = CacheStats()
        self.limits = limits or CacheLimits()
        self._saturated = LRUStore(self.limits.saturations, self.stats)
        self._saturation_locks: Dict[Hashable, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._rewritings: Dict[Tuple, object] = {}
        self._border_aboxes = LRUStore(self.limits.border_aboxes, self.stats)
        self._matches = LRUStore(self.limits.matches, self.stats)
        self._verdicts = VerdictStore(
            self.limits.verdict_queries, self.limits.border_aboxes, self.stats
        )
        self._subqueries = LRUStore(self.limits.subqueries, self.stats)
        self._candidates = LRUStore(self.limits.border_aboxes, self.stats)
        self._interner = ConstantInterner()
        self._derivations: Optional[DerivationTable] = None

    # -- lifecycle --------------------------------------------------------

    def configure_limits(self, limits: CacheLimits) -> None:
        """Apply new per-layer caps, evicting LRU entries already over them."""
        self.limits = limits
        self._saturated.set_capacity(limits.saturations)
        self._border_aboxes.set_capacity(limits.border_aboxes)
        self._candidates.set_capacity(limits.border_aboxes)
        self._matches.set_capacity(limits.matches)
        self._verdicts.set_limits(limits.verdict_queries, limits.border_aboxes)
        self._subqueries.set_capacity(limits.subqueries)

    def size_report(self) -> Dict[str, int]:
        """Entry counts per layer.

        ``verdict_queries`` / ``verdict_columns`` are the verdict store's
        registered queries and resident border columns, ``verdict_rows``
        the registered queries with at least one evaluated cell;
        ``derivation_sources`` / ``derivations`` are the derivation
        table's covered source facts and tabled derivations;
        ``candidate_borders`` the candidate table's (border, shape)
        entries; ``interned_constants`` the constants the interner has
        given an id.
        """
        table = self._derivations
        report = {
            "saturations": len(self._saturated),
            "rewritings": len(self._rewritings),
            "border_aboxes": len(self._border_aboxes),
            "matches": len(self._matches),
        }
        report.update(self._verdicts.sizes())
        report.update(
            {
                "subquery_indexes": len(self._subqueries),
                "subquery_states": sum(len(table) for _, table in self._subqueries.items()),
                "derivation_sources": len(table.covered) if table is not None else 0,
                "derivations": table.derivations if table is not None else 0,
                "candidate_borders": len(self._candidates),
                "interned_constants": len(self._interner),
            }
        )
        return report

    # -- persistence ------------------------------------------------------

    def snapshot_state(self, fingerprint: Optional[str] = None) -> Dict[str, object]:
        """The persistable memo state (values only, never the callables)."""
        verdict_queries, verdict_columns = self._verdicts.snapshot()
        return {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "fingerprint": fingerprint,
            "saturated": self._saturated.items(),
            "rewritings": dict(self._rewritings),
            "border_aboxes": self._border_aboxes.items(),
            "matches": self._matches.items(),
            "verdict_queries": verdict_queries,
            "verdict_columns": verdict_columns,
        }

    def save(self, path, fingerprint: Optional[str] = None) -> Dict[str, int]:
        """Persist the memo state to *path*; returns the size report saved.

        *fingerprint* (when given) stamps the snapshot with the identity
        of the specification the memos were computed under, so
        :meth:`load` can refuse a snapshot from a different one.

        The write is *atomic at the published path*: the state is dumped
        to a same-directory temporary file which is ``os.replace``\\ d
        into place only after the dump (and an fsync) completed.  A
        writer killed mid-``pickle.dump`` — the normal way a replica
        dies while shipping its snapshot — can therefore never leave a
        truncated artifact where a booting replica will look for one;
        the previous snapshot, if any, survives untouched.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(self.snapshot_state(fingerprint), stream)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp_path, path)
        except BaseException:
            # Never leave the partial dump behind: the temp file is
            # garbage by construction (it was not replaced into place).
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return self.size_report()

    def load(self, path, fingerprint: Optional[str] = None) -> Dict[str, int]:
        """Merge a saved snapshot back in; returns entries *surviving* per layer.

        Live entries win over persisted ones, merged entries respect the
        configured limits (entering at the cold end of each layer, so
        snapshot overflow evicts itself, never live heat), and the
        verdict store merges cell by cell, remapping persisted query ids
        into the live registry (:meth:`VerdictStore.merge`); its
        ``verdict_rows`` entry counts the queries that gained a cell.  Keys
        are content-addressed *within one specification*: when both
        sides supply a *fingerprint* it must match, because a snapshot
        computed under a different ontology or mapping maps equal keys
        to different values (``CertainAnswerEngine.load_cache`` always
        passes one).
        """
        try:
            with open(path, "rb") as handle:
                state = pickle.load(handle)
        except (
            EOFError,  # truncated mid-stream (pre-atomic-save artifacts)
            pickle.UnpicklingError,  # garbage bytes / corrupted frames
            AttributeError,  # foreign-class pickle: class no longer resolvable
            ImportError,  # foreign-class pickle: module no longer importable
            IndexError,
            KeyError,
            UnicodeDecodeError,
        ) as error:
            # Same refusal path as a fingerprint mismatch: a warm-boot
            # replica catches ValueError and degrades to a cold start
            # instead of crashing on a corrupt or foreign artifact.
            raise ValueError(
                f"{path} is not a readable evaluation-cache snapshot "
                f"({type(error).__name__}: {error}); refusing it"
            ) from error
        if not isinstance(state, dict) or state.get("magic") != SNAPSHOT_MAGIC:
            raise ValueError(f"{path} is not an evaluation-cache snapshot")
        if state.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {state.get('version')!r} is not supported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        stamped = state.get("fingerprint")
        if fingerprint is not None and stamped is not None and stamped != fingerprint:
            raise ValueError(
                f"{path} was saved against a different specification "
                "(fingerprint mismatch); loading it would serve stale memo values"
            )
        rewritings_added = 0
        for key, value in state["rewritings"].items():
            if key not in self._rewritings:
                self._rewritings[key] = value
                rewritings_added += 1
        added = {
            "saturations": self._saturated.merge_missing(state["saturated"]),
            "border_aboxes": self._border_aboxes.merge_missing(state["border_aboxes"]),
            "matches": self._matches.merge_missing(state["matches"]),
        }
        added["rewritings"] = rewritings_added
        added["verdict_rows"] = self._verdicts.merge(
            state["verdict_queries"], state["verdict_columns"]
        )
        return added

    # -- saturation -------------------------------------------------------

    def saturated_index(self, facts: FrozenSet[Atom], key: Optional[Tuple] = None) -> FactIndex:
        """Index over the chase of *facts*, computed at most once per key.

        *key* defaults to the fact set itself; callers whose saturator
        reads extra live configuration (e.g. the chase depth bound) must
        fold that configuration into the key so reconfiguring never
        serves a stale saturation.
        """
        memo_key = facts if key is None else key
        index = self._saturated.get(memo_key)
        if index is not None:
            self.stats.count("saturation_hits")
            return index
        with self._locks_guard:
            lock = self._saturation_locks.setdefault(memo_key, threading.Lock())
        with lock:
            index = self._saturated.get(memo_key)
            if index is None:
                self.stats.count("saturation_misses")
                index = FactIndex(self._saturator(facts))
                self._saturated.put(memo_key, index)
            else:
                self.stats.count("saturation_hits")
        # The per-key lock has done its duty (the entry is memoized); keep
        # the lock table from growing with every distinct key a resident
        # service ever saturates.  A thread still holding this lock object
        # re-checks the memo inside it, and a later recreation can at
        # worst duplicate one idempotent chase.
        with self._locks_guard:
            self._saturation_locks.pop(memo_key, None)
        return index

    # -- rewritings -------------------------------------------------------

    def rewriting(self, query):
        """Perfect rewriting of *query*, memoized by canonical signature."""
        key = query_key(query)
        rewriting = self._rewritings.get(key)
        if rewriting is None:
            self.stats.count("rewriting_misses")
            rewriting = self._rewriter(query)
            self._rewritings[key] = rewriting
        else:
            self.stats.count("rewriting_hits")
        return rewriting

    # -- border ABoxes ----------------------------------------------------

    def border_abox(self, atoms: FrozenSet[Atom], compute: Callable[[], object]):
        """Retrieved ABox of a border sub-database, keyed by its atoms."""
        return self.border_aboxes([atoms], lambda missing: [compute()])[0]

    def border_aboxes(
        self,
        atom_sets: Sequence[FrozenSet[Atom]],
        compute: Callable[[List[FrozenSet[Atom]]], Sequence[object]],
    ) -> List[object]:
        """Retrieved ABoxes of many border sub-databases, keyed by their atoms.

        One hit or miss is counted per border, as for single lookups (a
        border repeated in the batch hits its first occurrence); all
        misses are computed by one call ``compute(missing_atom_sets)``.
        """
        results: List[object] = [None] * len(atom_sets)
        missing: Dict[FrozenSet[Atom], List[int]] = {}
        for position, atoms in enumerate(atom_sets):
            if atoms in missing:
                self.stats.count("border_abox_hits")
                missing[atoms].append(position)
                continue
            abox = self._border_aboxes.get(atoms)
            if abox is None:
                self.stats.count("border_abox_misses")
                missing[atoms] = [position]
            else:
                self.stats.count("border_abox_hits")
                results[position] = abox
        if missing:
            for (atoms, positions), abox in zip(missing.items(), compute(list(missing))):
                self._border_aboxes.put(atoms, abox)
                for position in positions:
                    results[position] = abox
        return results

    def derivation_table(self, fingerprint: str) -> DerivationTable:
        """The derivation table of the database content *fingerprint* names.

        A different fingerprint (a delta, an outside mutation, another
        database) starts an empty table, so the table is content-
        addressed like every other layer.  Every table encodes its facts
        through the cache's :attr:`interner`.
        """
        with self._locks_guard:
            table = self._derivations
            if table is None or table.fingerprint != fingerprint:
                table = self._derivations = DerivationTable(
                    fingerprint, self.stats, self._interner
                )
            return table

    @property
    def interner(self) -> ConstantInterner:
        """The cache's constant interner (see :class:`ConstantInterner`).

        The derivation table's encoded facts, the kernel's index rows and
        the keys of the subquery tables all use its ids.
        """
        return self._interner

    # -- candidate table --------------------------------------------------

    def candidates(self, key: Tuple, compute: Callable[[], Sequence]) -> Tuple:
        """The tabled candidate queries of one (border, generation shape) key.

        Computed once per key and kept as an immutable tuple (the queries
        are frozen values, shared by every caller); hits and misses are
        counted in ``stats.candidate_hits`` / ``candidate_misses``.  Like
        the derivation table it is derived state: never snapshotted.
        """
        queries = self._candidates.get(key)
        if queries is None:
            self.stats.count("candidate_misses")
            queries = tuple(compute())
            self._candidates.put(key, queries)
        else:
            self.stats.count("candidate_hits")
        return queries

    # -- J-match verdicts -------------------------------------------------

    def match(self, key: Tuple, compute: Callable[[], bool]) -> bool:
        """Memoized J-match verdict for a (query signature, border) key."""
        verdict = self._matches.get(key)
        if verdict is None:
            self.stats.count("match_misses")
            verdict = compute()
            self._matches.put(key, verdict)
        else:
            self.stats.count("match_hits")
        return verdict

    # -- verdict store ------------------------------------------------------

    def verdict_store(self) -> VerdictStore:
        """The specification's verdict column store (see :class:`VerdictStore`).

        Every :class:`~repro.engine.verdicts.VerdictMatrix` over this
        specification gathers its rows from it and writes back the cells
        it had to evaluate, so a border evaluated for one labeling is
        never re-matched for another.
        """
        return self._verdicts

    # -- kernel subquery tables -------------------------------------------

    def subquery_tables(self, index_key: Hashable) -> Dict[Tuple, object]:
        """The tabled partial-match states of one unified border index.

        The pool-level match kernel (:mod:`repro.engine.kernel`) memoizes
        the partial-match bitsets of canonical atom prefixes here, keyed
        by the content-addressed identity of its merged border index, so
        candidates across the bottom-up lattice that share a prefix pay
        for it once — across kernels, scorers and requests over the same
        borders.  Hit/miss traffic is counted by the kernel in
        ``stats.subquery_hits`` / ``stats.subquery_misses``.  The
        tables are derived, cheap-to-recompute state:
        they are *not* persisted by :meth:`save` (snapshots keep their
        existing layout and version).

        Under a ``subqueries`` limit the *index* is the eviction unit:
        evicting one drops all its tabled prefixes at once.
        """
        return self._subqueries.get_or_create(index_key, dict)

    # -- maintenance ------------------------------------------------------

    def invalidate_borders(self, touched, constants=frozenset()) -> Dict[str, int]:
        """Evict entries whose provenance intersects the *touched* borders.

        The delta-invalidation core of the database-drift path.  All
        keys in this cache are content-addressed *values*, so entries
        surviving a database mutation can never be stale — what this
        drops is garbage that no future key will ever address again
        (the old borders no longer exist), plus the memory it pins:

        * **border ABoxes** keyed by a touched border's atom set;
        * **saturations** of those ABoxes (their fact sets are collected
          *before* the ABoxes are dropped) and of any cached ABox that
          mentions a constant of the delta (covers the full-database
          retrieval, whose next key differs anyway);
        * **J-match verdicts** keyed by (query signature, touched border);
        * **verdict-store columns** of the touched borders;
        * **tabled subquery states** of any unified border index built
          over a touched border;
        * **candidate-table entries** keyed by a touched border.

        *touched* is the border set returned by
        :meth:`~repro.core.border.BorderComputer.apply_delta`;
        *constants* the delta's constants.  Returns dropped entries per
        layer; the total is counted into ``stats.delta_invalidations``.
        """
        touched = frozenset(touched)
        constants = frozenset(constants)
        touched_atom_sets = {border.atoms for border in touched}

        def mentions_delta(facts) -> bool:
            return any(
                not constants.isdisjoint(atom.constants()) for atom in facts
            )

        stale_fact_sets = set()
        for atoms in touched_atom_sets:
            abox = self._border_aboxes.get(atoms, touch=False)
            facts = getattr(abox, "facts", None)
            if facts is not None:
                stale_fact_sets.add(frozenset(facts))

        def saturation_stale(key, _value) -> bool:
            facts = key[0] if isinstance(key, tuple) else key
            if not isinstance(facts, frozenset):
                return False
            return facts in stale_fact_sets or (constants and mentions_delta(facts))

        def layout_touched(layout_key) -> bool:
            # ("verdict_columns", positive_count, radius, borders)
            if not (isinstance(layout_key, tuple) and len(layout_key) >= 4):
                return False
            borders = layout_key[3]
            return isinstance(borders, tuple) and not touched.isdisjoint(borders)

        dropped = {
            "border_aboxes": self._border_aboxes.discard_where(
                lambda key, _v: key in touched_atom_sets
            ),
            "saturations": self._saturated.discard_where(saturation_stale),
            "matches": self._matches.discard_where(
                lambda key, _v: isinstance(key, tuple)
                and len(key) == 2
                and key[1] in touched
            ),
            "verdict_columns": self._verdicts.discard_borders(touched),
            "subqueries": self._subqueries.discard_where(
                # ("kernel_tables", columns_key, strategy, depth)
                lambda key, _v: isinstance(key, tuple)
                and len(key) >= 2
                and layout_touched(key[1])
            ),
            # (border, max_atoms, max_kept_constants)
            "candidates": self._candidates.discard_where(lambda key, _v: key[0] in touched),
        }
        total = sum(dropped.values())
        if total:
            self.stats.merge({"delta_invalidations": total})
        return dropped

    def clear(self) -> None:
        """Drop every memoized entry (counters are kept).

        The interner goes together with the subquery tables and the
        derivation table, the two layers that hold its ids.  Call it
        between requests: a kernel evaluating across the call would mix
        the old ids with the new.
        """
        with self._locks_guard:
            self._saturated.clear()
            self._saturation_locks.clear()
            self._rewritings.clear()
            self._border_aboxes.clear()
            self._matches.clear()
            self._verdicts.clear()
            self._subqueries.clear()
            self._candidates.clear()
            self._interner = ConstantInterner()
            self._derivations = None

    def __str__(self):
        return (
            f"EvaluationCache(saturated={len(self._saturated)}, "
            f"rewritings={len(self._rewritings)}, "
            f"border_aboxes={len(self._border_aboxes)}, matches={len(self._matches)}, "
            f"{self._verdicts}, "
            f"subquery_indexes={len(self._subqueries)}, "
            f"candidate_borders={len(self._candidates)}, derivations={self._derivations})"
        )
