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
* **retrieved border ABoxes** — keyed by the border's source atoms;
* **J-match verdicts** — keyed by query signature × border (the border
  value embeds its tuple, radius and atom layers, so keys are
  content-addressed and stay valid even if the source database mutates);
* **verdict-matrix rows** — bitsets of per-border verdicts, keyed by
  column layout × query signature (see :mod:`repro.engine.verdicts`);
* **kernel subquery tables** — partial-match provenance bitsets of
  canonical atom prefixes, keyed by unified-border-index identity ×
  prefix signature (see :mod:`repro.engine.kernel`), so candidates that
  share a join prefix pay for it once;
* **the derivation table** — for the current database content (keyed
  by :meth:`~repro.obdm.database.SourceDatabase.fingerprint`), every
  mapping derivation over the source facts covered so far, each with
  its witness (:class:`DerivationTable`).  Border ABoxes are cut out of
  it by witness containment, so a batch of borders costs at most one
  mapping pass over its *uncovered* source facts, and borders already
  covered cost none.

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

Setting :attr:`EvaluationCache.enabled` to ``False`` restores the
seed's per-call behaviour for the hot layers (saturation, border-ABox
retrieval, J-matching; each retrieval batch then derives into a
throwaway table) while keeping the rewriting memo, which the seed
already had; the benchmark ``benchmarks/bench_batch_explain.py`` uses
that switch to measure the speedup honestly.

Lifecycle (for long-lived services, :mod:`repro.service`)
---------------------------------------------------------

A one-shot batch computation can let the memos grow without bound; a
resident service cannot.  Three lifecycle features keep a warm cache
useful across millions of requests:

* **bounded layers** — :class:`CacheLimits` caps the entry count of the
  expensive layers (saturations, border ABoxes, verdict-row layouts and
  J-match verdicts) with per-layer LRU eviction (:class:`LRUStore`);
  evictions are counted in :attr:`CacheStats.evictions` and the current
  occupancy is reported by :meth:`EvaluationCache.size_report`;
* **snapshot persistence** — :meth:`EvaluationCache.save` writes the
  content-addressed memo state to disk and
  :meth:`EvaluationCache.load` merges it back, so a restarted service
  starts warm.  Only values are persisted, never the injected
  callables, and the snapshot is version-stamped;
* **eviction-aware sharing** — consumers that hold a reference to a
  shared verdict-row store (a live
  :class:`~repro.engine.verdicts.VerdictMatrix`) can ask
  :meth:`EvaluationCache.has_verdict_layout` whether their layout is
  still resident; an evicted layout means the matrix no longer feeds
  the shared store and should be rebuilt rather than reused.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..queries.atoms import Atom
from ..queries.evaluation import FactIndex
from ..queries.ucq import query_key

Saturator = Callable[[FrozenSet[Atom]], Iterable[Atom]]
Deriver = Callable[[FrozenSet[Atom]], Iterable[Tuple[Atom, FrozenSet[Atom]]]]

SNAPSHOT_VERSION = 1
SNAPSHOT_MAGIC = "repro-evaluation-cache"


class VerdictPolicy:
    """Selects between the verdict-row engine and the Definition 3.4 oracle.

    When ``enabled`` (the default), :class:`~repro.core.best_describe.QueryScorer`
    computes match profiles through a
    :class:`~repro.engine.verdicts.VerdictMatrix` — one bitset row per
    candidate, criteria as popcount arithmetic.  Disabling it selects
    the per-pair oracle (``MatchEvaluator.profile`` →
    ``matches_border``: one certain-answer question per (query, border)
    pair), which the differential suites and
    ``benchmarks/bench_bitset_criteria.py`` compare against.  Every
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
    read-modify-write that can drop counts when batch-scoring worker
    threads share the cache.
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
        "subquery_hits",
        "subquery_misses",
        "support_hits",
        "support_misses",
        "batch_dispatches",
        "batch_rows",
        "mapping_passes",
        "mapping_facts_read",
        "evictions",
        "delta_invalidations",
    )

    def __init__(self):
        self._lock = threading.Lock()
        for counter in self._COUNTERS:
            setattr(self, counter, 0)

    def __getstate__(self):
        # Locks cannot cross process boundaries; counters can.  Process-
        # sharded scoring (repro.engine.batch) pickles specifications, so
        # the stats object must survive a round-trip.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

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
        """Fold another stats snapshot (or delta) into these counters.

        Process-sharded scoring computes each shard's counters in the
        worker and ships the *delta* back (see
        :func:`repro.engine.batch._score_shard`); merging them here keeps
        hit/miss/eviction numbers truthful under sharding.  Unknown keys
        are ignored so snapshots from older layouts merge cleanly.
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
    kept them forever.  The four bounded layers are the ones that grow
    with traffic — distinct ABoxes, borders, column layouts and (query,
    border) pairs.
    """

    saturations: Optional[int] = None
    border_aboxes: Optional[int] = None
    verdict_layouts: Optional[int] = None
    matches: Optional[int] = None
    subqueries: Optional[int] = None
    """Cap on resident kernel *table sets* (one per unified border index);
    evicting one drops every partial-match bitset tabled under it, the
    same layout-as-eviction-unit discipline as ``verdict_layouts``."""

    def __str__(self):
        return (
            f"CacheLimits(saturations={self.saturations}, "
            f"border_aboxes={self.border_aboxes}, "
            f"verdict_layouts={self.verdict_layouts}, matches={self.matches}, "
            f"subqueries={self.subqueries})"
        )


class LRUStore:
    """A thread-safe memo store with optional LRU bounding.

    Backed by an :class:`collections.OrderedDict`; a hit refreshes the
    entry's recency, an insert beyond ``capacity`` evicts the least
    recently used entry and reports it to the shared
    :class:`CacheStats.evictions` counter.  With ``capacity=None`` the
    store behaves like the unbounded dicts it replaced.  Locks are
    dropped on pickling and rebuilt on arrival (same discipline as the
    cache itself).
    """

    def __init__(self, capacity: Optional[int] = None, stats: Optional[CacheStats] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"LRUStore capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._stats = stats
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    # -- pickling ---------------------------------------------------------

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
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

    def get_or_create_cold(self, key: Hashable, factory: Callable[[], object]):
        """Like :meth:`get_or_create`, but without promoting recency.

        A live entry is returned untouched and a missing one is created
        at the *cold* end.  Snapshot loading uses this so persisted
        layouts can never evict hotter live ones (same contract as
        :meth:`merge_missing`); at capacity the cold insert may evict
        itself immediately, which only wastes the merge, never live heat.
        """
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            value = self._entries[key] = factory()
            self._entries.move_to_end(key, last=False)
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
        if capacity is not None and capacity < 1:
            raise ValueError(f"LRUStore capacity must be >= 1 or None, got {capacity}")
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


class DerivationTable:
    """Tabled mapping derivations of one database content, with witnesses.

    The table *covers* a growing set of source facts and holds exactly
    the derivations whose witnesses lie inside it: each derived ontology
    fact with the set of source facts one derivation read.  Mappings
    are monotone, so the ABox retrieved from a sub-database ``B`` of the
    covered facts is the set of facts with some witness inside ``B``
    (:meth:`border_facts`), which needs no mapping evaluation at all.
    :meth:`cover` extends the table by the fresh facts only, so a batch
    of borders costs at most one mapping pass over the facts no earlier
    batch covered.

    Extension runs under a lock and publishes copy-on-write (derivation
    tuples are replaced, never appended to, and the covered set is
    swapped last), so a concurrent reader can never see a fact covered
    before its derivations are stored.  The table is bounded by the
    database: at most every derivation of the covered facts.
    """

    _NO_OTHERS: FrozenSet[Atom] = frozenset()

    def __init__(self, fingerprint: Optional[str] = None, stats: Optional[CacheStats] = None):
        self.fingerprint = fingerprint
        self._stats = stats
        self._covered: FrozenSet[Atom] = frozenset()
        # Source fact → (derived fact, the rest of its witness) for every
        # derivation whose witness contains that source fact.
        self._by_source: Dict[Atom, Tuple[Tuple[Atom, FrozenSet[Atom]], ...]] = {}
        self.derivations = 0
        self._lock = threading.Lock()

    @property
    def covered(self) -> FrozenSet[Atom]:
        return self._covered

    def cover(self, facts: FrozenSet[Atom], derive: Deriver, local: bool) -> None:
        """Table every derivation whose witness lies inside *facts*.

        *derive(scope)* yields ``(fact, witness)`` for every derivation
        over the sub-database *scope* (one witnessed mapping pass).
        With *local* — every witness is one source fact — the scope is
        just the fresh facts; otherwise it is covered ∪ fresh, and only
        the witnesses meeting the fresh facts are new.
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
            for fact, witness in set(derive(scope)):
                if not local and witness.isdisjoint(fresh):
                    continue
                self.derivations += 1
                for source in witness:
                    others = witness - {source} or self._NO_OTHERS
                    added.setdefault(source, set()).add((fact, others))
            for source, entries in added.items():
                self._by_source[source] = self._by_source.get(source, ()) + tuple(entries)
            self._covered = self._covered | fresh

    def border_facts(self, atom_sets: Sequence[FrozenSet[Atom]]) -> List[FrozenSet[Atom]]:
        """The retrieved ABox facts of each (covered) source-fact set.

        A fact belongs to set ``B``'s ABox iff some witness of it lies
        inside ``B``: every derivation listed under a source fact of
        ``B`` whose other witness facts are in ``B`` too.
        """
        by_source = self._by_source
        result = []
        for atoms in atom_sets:
            facts = set()
            for source in atoms:
                for fact, others in by_source.get(source, ()):
                    if not others or others <= atoms:
                        facts.add(fact)
            result.append(frozenset(facts))
        return result

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
        set.  Called at most once per distinct ABox while enabled.
    rewriter:
        Maps an ontology query to its perfect rewriting.  Called at most
        once per canonical query signature (always memoized; the seed
        engine already cached rewritings, so disabling the cache does
        not disable this layer).
    limits:
        Optional :class:`CacheLimits` bounding the hot layers with LRU
        eviction; reconfigurable later via :meth:`configure_limits`.
    """

    def __init__(
        self,
        saturator: Saturator,
        rewriter: Callable,
        enabled: bool = True,
        limits: Optional[CacheLimits] = None,
    ):
        self._saturator = saturator
        self._rewriter = rewriter
        self.enabled = enabled
        self.stats = CacheStats()
        self.limits = limits or CacheLimits()
        self._saturated = LRUStore(self.limits.saturations, self.stats)
        self._saturation_locks: Dict[Hashable, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._rewritings: Dict[Tuple, object] = {}
        self._border_aboxes = LRUStore(self.limits.border_aboxes, self.stats)
        self._matches = LRUStore(self.limits.matches, self.stats)
        self._verdict_rows = LRUStore(self.limits.verdict_layouts, self.stats)
        self._subqueries = LRUStore(self.limits.subqueries, self.stats)
        self._derivations: Optional[DerivationTable] = None

    # -- pickling ---------------------------------------------------------

    def __getstate__(self):
        # Process-sharded scoring ships whole specifications to worker
        # processes.  Locks are recreated on arrival; every memo entry is
        # a content-addressed value, so warm entries that survive the
        # pickle round-trip stay valid in the worker.  The derivation
        # table (and its lock) stays behind: a worker re-derives what it
        # needs.
        state = dict(self.__dict__)
        del state["_saturation_locks"]
        del state["_locks_guard"]
        state["_derivations"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._saturation_locks = {}
        self._locks_guard = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def configure_limits(self, limits: CacheLimits) -> None:
        """Apply new per-layer caps, evicting LRU entries already over them."""
        self.limits = limits
        self._saturated.set_capacity(limits.saturations)
        self._border_aboxes.set_capacity(limits.border_aboxes)
        self._matches.set_capacity(limits.matches)
        self._verdict_rows.set_capacity(limits.verdict_layouts)
        self._subqueries.set_capacity(limits.subqueries)

    def size_report(self) -> Dict[str, int]:
        """Entry counts per layer (verdict rows also summed across layouts).

        ``derivation_sources`` / ``derivations`` are the derivation
        table's covered source facts and tabled derivations.
        """
        table = self._derivations
        return {
            "saturations": len(self._saturated),
            "rewritings": len(self._rewritings),
            "border_aboxes": len(self._border_aboxes),
            "matches": len(self._matches),
            "verdict_layouts": len(self._verdict_rows),
            "verdict_rows": sum(len(rows) for _, rows in self._verdict_rows.items()),
            "subquery_indexes": len(self._subqueries),
            "subquery_states": sum(len(table) for _, table in self._subqueries.items()),
            "derivation_sources": len(table.covered) if table is not None else 0,
            "derivations": table.derivations if table is not None else 0,
        }

    # -- persistence ------------------------------------------------------

    def snapshot_state(self, fingerprint: Optional[str] = None) -> Dict[str, object]:
        """The persistable memo state (values only, never the callables)."""
        return {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "fingerprint": fingerprint,
            "saturated": self._saturated.items(),
            "rewritings": dict(self._rewritings),
            "border_aboxes": self._border_aboxes.items(),
            "matches": self._matches.items(),
            "verdict_rows": [
                (layout, dict(rows)) for layout, rows in self._verdict_rows.items()
            ],
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
        snapshot overflow evicts itself, never live heat), and
        verdict-row stores merge row-by-row so a layout that is warm
        both on disk and in memory keeps the union of its rows.  Keys
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
        if not self.enabled:
            # The hot layers short-circuit on ``enabled`` and would never
            # serve merged entries — reporting them as added would make a
            # cold cache look warm.  Only the rewriting memo (which stays
            # active when the cache is disabled) is worth merging.
            return {
                "saturations": 0,
                "border_aboxes": 0,
                "matches": 0,
                "rewritings": rewritings_added,
                "verdict_rows": 0,
            }
        added = {
            "saturations": self._saturated.merge_missing(state["saturated"]),
            "border_aboxes": self._border_aboxes.merge_missing(state["border_aboxes"]),
            "matches": self._matches.merge_missing(state["matches"]),
        }
        added["rewritings"] = rewritings_added
        merged_layouts = []
        # Reversed for the same cohort-order reason as merge_missing.
        for layout, rows in reversed(state["verdict_rows"]):
            live = self._verdict_rows.get_or_create_cold(layout, dict)
            merged = 0
            for key, row in rows.items():
                if key not in live:
                    live[key] = row
                    merged += 1
            merged_layouts.append((layout, live, merged))
        # Like the scalar layers: only rows whose layout survived the
        # cold-end insert (and is still the same store) count as added.
        added["verdict_rows"] = sum(
            merged
            for layout, live, merged in merged_layouts
            if self._verdict_rows.get(layout, touch=False) is live
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
        if not self.enabled:
            self.stats.count("saturation_misses")
            return FactIndex(self._saturator(facts))
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
        if not self.enabled:
            self.stats.merge({"border_abox_misses": len(atom_sets)})
            return list(compute(list(atom_sets)))
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
        addressed like every other layer.  With the cache disabled each
        call gets a throwaway table.
        """
        if not self.enabled:
            return DerivationTable(fingerprint, self.stats)
        with self._locks_guard:
            table = self._derivations
            if table is None or table.fingerprint != fingerprint:
                table = self._derivations = DerivationTable(fingerprint, self.stats)
            return table

    # -- J-match verdicts -------------------------------------------------

    def match(self, key: Tuple, compute: Callable[[], bool]) -> bool:
        """Memoized J-match verdict for a (query signature, border) key."""
        if not self.enabled:
            self.stats.count("match_misses")
            return compute()
        verdict = self._matches.get(key)
        if verdict is None:
            self.stats.count("match_misses")
            verdict = compute()
            self._matches.put(key, verdict)
        else:
            self.stats.count("match_hits")
        return verdict

    # -- verdict rows -----------------------------------------------------

    def verdict_rows(self, columns_key: Hashable) -> Dict[Tuple, int]:
        """The shared row store of one column layout (query key → bitset).

        A :class:`~repro.engine.verdicts.VerdictMatrix` over the same
        border columns (same labeling, radius and database content, by
        construction of the key) shares one dict of rows, so candidate
        verdicts computed by one scorer are reused by every later scorer
        — across criteria sets, scoring expressions and labelings that
        happen to induce the same borders.  With the cache disabled each
        matrix gets a private dict (rows are still computed only once
        per matrix, mirroring how the per-pair path recomputes verdicts
        per profile call).

        Under a ``verdict_layouts`` limit the *layout* is the eviction
        unit: evicting one drops all its rows at once, and any live
        matrix holding the evicted dict stops feeding the shared store
        (see :meth:`has_verdict_layout`).
        """
        if not self.enabled:
            return {}
        return self._verdict_rows.get_or_create(columns_key, dict)

    def touch_verdict_layout(self, columns_key: Hashable) -> bool:
        """Refresh an existing layout's LRU recency; ``False`` if evicted.

        Never *creates* an entry: re-registering an evicted layout with a
        fresh empty dict would make a disconnected matrix look live
        forever while an orphan occupied a ``verdict_layouts`` slot.
        """
        if not self.enabled:
            return False
        return self._verdict_rows.get(columns_key, touch=True) is not None

    def has_verdict_layout(self, columns_key: Hashable) -> bool:
        """Whether a layout's row store is still resident (no recency touch).

        The liveness probe behind
        :meth:`~repro.engine.verdicts.VerdictMatrix.is_live`: consumers
        that cached a matrix across requests call this before reusing it,
        and rebuild when eviction has disconnected their row store.
        """
        return self.enabled and self._verdict_rows.get(columns_key, touch=False) is not None

    # -- kernel subquery tables -------------------------------------------

    def subquery_tables(self, index_key: Hashable) -> Dict[Tuple, object]:
        """The tabled partial-match states of one unified border index.

        The pool-level match kernel (:mod:`repro.engine.kernel`) memoizes
        the partial-match bitsets of canonical atom prefixes here, keyed
        by the content-addressed identity of its merged border index, so
        candidates across the bottom-up lattice that share a prefix pay
        for it once — across kernels, scorers and requests over the same
        borders.  Hit/miss traffic is counted by the kernel in
        ``stats.subquery_hits`` / ``stats.subquery_misses``.  Like
        verdict rows, the tables are derived, cheap-to-recompute state:
        they are *not* persisted by :meth:`save` (snapshots keep their
        existing layout and version), and with the cache disabled each
        kernel gets a private dict (tabling still dedups within one
        kernel build).

        Under a ``subqueries`` limit the *index* is the eviction unit:
        evicting one drops all its tabled prefixes at once.
        """
        if not self.enabled:
            return {}
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
        * **verdict-row layouts** whose column borders intersect the
          touched set;
        * **tabled subquery states** of any unified border index built
          over a touched border.

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
            "verdict_layouts": self._verdict_rows.discard_where(
                lambda key, _v: layout_touched(key)
            ),
            "subqueries": self._subqueries.discard_where(
                # ("kernel_tables", columns_key, strategy, depth)
                lambda key, _v: isinstance(key, tuple)
                and len(key) >= 2
                and layout_touched(key[1])
            ),
        }
        total = sum(dropped.values())
        if total:
            self.stats.merge({"delta_invalidations": total})
        return dropped

    def clear(self) -> None:
        """Drop every memoized entry (counters are kept)."""
        with self._locks_guard:
            self._saturated.clear()
            self._saturation_locks.clear()
            self._rewritings.clear()
            self._border_aboxes.clear()
            self._matches.clear()
            self._verdict_rows.clear()
            self._subqueries.clear()
            self._derivations = None

    def __str__(self):
        return (
            f"EvaluationCache(enabled={self.enabled}, "
            f"saturated={len(self._saturated)}, rewritings={len(self._rewritings)}, "
            f"border_aboxes={len(self._border_aboxes)}, matches={len(self._matches)}, "
            f"verdict_layouts={len(self._verdict_rows)}, "
            f"subquery_indexes={len(self._subqueries)}, derivations={self._derivations})"
        )
