"""Borders of radius ``r`` (Definitions 3.1–3.2, Example 3.3).

Given a source database ``D`` and a tuple ``t`` of constants, the
*border of radius r* collects the atoms of ``D`` that are "relevant" to
``t`` up to ``r`` hops of constant-sharing:

* ``W_{t,0}(D)`` — atoms containing a constant of ``t``;
* ``W_{t,j+1}(D)`` — atoms *reachable from* ``W_{t,j}`` (Definition 3.1:
  sharing a constant with some atom of the previous layer) that have not
  appeared in an earlier layer;
* ``B_{t,r}(D) = ⋃_{0 ≤ i ≤ r} W_{t,i}(D)``.

Layers are computed as breadth-first frontiers over the bipartite
incidence graph between atoms and constants, which reproduces the
layering of Example 3.3 exactly (each layer lists only the *new* atoms;
the union over layers is insensitive to this choice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ExplanationError
from ..obdm.database import SourceDatabase
from ..queries.atoms import Atom
from ..queries.terms import Constant
from .labeling import ConstantTuple, RawTuple, normalize_tuple


@dataclass(frozen=True)
class Border:
    """The border ``B_{t,r}(D)`` of a tuple, with its per-radius layers."""

    tuple: ConstantTuple
    radius: int
    layers: Tuple[FrozenSet[Atom], ...]

    def __hash__(self):
        # Borders key every J-match memo and verdict-row lookup, so their
        # hash is on the scoring hot path; the fields are deeply frozen,
        # which makes it safe to compute once and remember.
        try:
            return object.__getattribute__(self, "_cached_hash")
        except AttributeError:
            value = hash((self.tuple, self.radius, self.layers))
            object.__setattr__(self, "_cached_hash", value)
            return value

    def __getstate__(self):
        # The cached hash must never cross a process boundary: Python
        # string hashing is salted per process (PYTHONHASHSEED), so a
        # pickled hash is stale in any other interpreter and would make
        # persisted memo entries keyed by borders unreachable after a
        # snapshot load (and equal keys non-identical).  The cached atom
        # union is dropped too — derivable content that would only fatten
        # snapshots.  Both are recomputed lazily in the loading process.
        state = dict(self.__dict__)
        state.pop("_cached_hash", None)
        state.pop("_cached_atoms", None)
        return state

    @property
    def atoms(self) -> FrozenSet[Atom]:
        """All atoms of the border (union of the layers, computed once).

        Cached like the hash: the shared border-ABox layer is keyed by
        this frozenset, so it is rebuilt on every J-match miss otherwise.
        """
        try:
            return object.__getattribute__(self, "_cached_atoms")
        except AttributeError:
            collected: Set[Atom] = set()
            for layer in self.layers:
                collected |= layer
            value = frozenset(collected)
            object.__setattr__(self, "_cached_atoms", value)
            return value

    def layer(self, index: int) -> FrozenSet[Atom]:
        """``W_{t,index}(D)`` (empty beyond the last non-empty layer)."""
        if index < 0:
            raise ExplanationError("layer index must be >= 0")
        if index < len(self.layers):
            return self.layers[index]
        return frozenset()

    def size(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return self.size()

    def __str__(self):
        rendered = ", ".join(str(a) for a in sorted(self.atoms))
        key = ",".join(str(c.value) for c in self.tuple)
        return "B_{" + key + "}," + str(self.radius) + " = {" + rendered + "}"


class BorderComputer:
    """Computes and caches borders over one source database.

    *capacity* bounds the border cache with LRU eviction (``None`` keeps
    the unbounded seed behaviour, right for one-shot searches).
    Long-lived owners — the explanation service keeps one computer for
    its whole lifetime — pass a capacity so memory does not grow with
    every distinct labeled tuple ever served; an evicted border is
    simply recomputed on the next request that needs it.
    """

    def __init__(self, database: SourceDatabase, capacity: Optional[int] = None, stats=None):
        from ..engine.cache import LRUStore

        self.database = database
        # *stats* (a CacheStats) makes border evictions visible in the
        # shared ``evictions`` counter, like every other bounded layer.
        self._cache = LRUStore(capacity=capacity, stats=stats)

    # -- layer computation ---------------------------------------------------

    def layers(self, raw: RawTuple, radius: int) -> List[FrozenSet[Atom]]:
        """The frontiers ``W_{t,0}, ..., W_{t,radius}`` as a list.

        Each BFS frontier expands through **one** batched by-constant
        lookup (:meth:`~repro.obdm.database.SourceDatabase.facts_with_any_constant`)
        instead of one lookup per constant: on the in-memory backend
        that is the same union of index buckets, on a disk backend it is
        a handful of ``IN`` queries instead of hundreds of round trips —
        borders are computed per-individual from indexed point lookups
        either way, never from whole-database scans.
        """
        if radius < 0:
            raise ExplanationError(f"radius must be a natural number, got {radius}")
        key = normalize_tuple(raw)
        initial: Set[Atom] = set(self.database.facts_with_any_constant(key))
        layers: List[FrozenSet[Atom]] = [frozenset(initial)]
        seen_atoms: Set[Atom] = set(initial)
        frontier = initial
        for _ in range(radius):
            frontier_constants: Set[Constant] = set()
            for atom in frontier:
                frontier_constants |= atom.constants()
            # A set difference reuses the hashes both sets store: no
            # Atom.__hash__ call per candidate.
            next_frontier = (
                self.database.facts_with_any_constant(frontier_constants) - seen_atoms
            )
            layers.append(frozenset(next_frontier))
            seen_atoms |= next_frontier
            frontier = next_frontier
            if not frontier:
                # All further layers are empty; still record them lazily.
                break
        while len(layers) < radius + 1:
            layers.append(frozenset())
        return layers

    def border(self, raw: RawTuple, radius: int) -> Border:
        """The border ``B_{t,radius}(D)`` (cached)."""
        key = normalize_tuple(raw)
        cache_key = (key, radius)
        cached = self._cache.get(cache_key)
        if cached is None:
            cached = Border(key, radius, tuple(self.layers(key, radius)))
            self._cache.put(cache_key, cached)
        return cached

    def borders(self, raws: Iterable[RawTuple], radius: int) -> Dict[ConstantTuple, Border]:
        """Borders of many tuples, keyed by the normalised tuple.

        Deduplicates by normalized tuple key up front, so a raw tuple
        appearing several times in *raws* (e.g. under both labels of a
        drifting labeling, or in differently-typed raw forms) triggers
        exactly one border lookup — and never re-expands its layers.
        """
        result: Dict[ConstantTuple, Border] = {}
        for raw in raws:
            key = normalize_tuple(raw)
            if key in result:
                continue
            result[key] = self.border(key, radius)
        return result

    # -- database drift ------------------------------------------------------

    def apply_delta(self, delta) -> FrozenSet[Border]:
        """Drop the cached borders a database delta changes; returns them.

        The test is exact.  ``B_{t,r}(D)`` is a breadth-first closure
        over constant sharing, so the delta changes its layers iff

        * some removed fact lies in the border, or
        * some added fact outside the border shares a constant with
          ``t`` or with an atom of ``W_{t,0} … W_{t,r-1}``.

        Either clause adds or removes an atom of the border.  Conversely,
        by induction on Definition 3.1, a fact that meets neither enters
        or leaves none of the first ``r + 1`` layers: a removed fact
        outside the border lies beyond radius ``r``, and an added fact
        meeting only ``W_{t,r}`` lands at radius ``r + 1``.  An added fact
        already in the border was in the database before the delta, so it
        changes nothing.  Radius 0 reads only the tuple and the removed
        facts.  No border's constant set is built: the inner layers'
        atoms are read only for their arguments, against the constants
        of the added facts.

        Untouched borders stay cached and warm; touched ones are
        evicted and returned so
        :meth:`~repro.engine.cache.EvaluationCache.invalidate_borders`
        can drop every downstream entry built over them.  The caller is
        expected to have applied (or be about to apply) the delta to
        ``self.database`` — this method only manages the cache.
        """
        removed = frozenset(delta.removed)
        added = delta.added
        added_constants = frozenset(argument for fact in added for argument in fact.args)
        if not (removed or added_constants):
            return frozenset()
        touched = [
            border
            for _key, border in self._cache.items()
            if _changed_by(border, removed, added, added_constants)
        ]
        if touched:
            doomed = frozenset(touched)
            self._cache.discard_where(lambda _key, border: border in doomed)
        return frozenset(touched)

    # -- analysis helpers ----------------------------------------------------------

    def saturation_radius(self, raw: RawTuple, limit: int = 64) -> int:
        """Smallest radius after which the border stops growing.

        Useful to choose ``r``: beyond this radius Proposition 3.5 tells
        us nothing changes for the given tuple.
        """
        previous_size = -1
        for radius in range(limit + 1):
            border = self.border(raw, radius)
            if border.size() == previous_size:
                return radius - 1
            previous_size = border.size()
        return limit

    def statistics(self, raws: Iterable[RawTuple], radius: int) -> Dict[str, float]:
        """Aggregate border-size statistics for a set of tuples."""
        sizes = [self.border(raw, radius).size() for raw in raws]
        if not sizes:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": len(sizes),
            "min": float(min(sizes)),
            "max": float(max(sizes)),
            "mean": sum(sizes) / len(sizes),
        }


def _changed_by(
    border: Border,
    removed: FrozenSet[Atom],
    added: Sequence[Atom],
    added_constants: FrozenSet[Constant],
) -> bool:
    """Whether a delta changes *border* (the criterion of
    :meth:`BorderComputer.apply_delta`)."""
    atoms = border.atoms
    if not removed.isdisjoint(atoms):
        return True
    if not added_constants:
        return False
    # The added constants met by the tuple or an inner layer: an added
    # fact reaches the border's first r + 1 layers through one of them.
    met = {constant for constant in border.tuple if constant in added_constants}
    for layer in border.layers[:-1]:
        for atom in layer:
            for argument in atom.args:
                if argument in added_constants:
                    met.add(argument)
    return bool(met) and any(
        fact not in atoms and not met.isdisjoint(fact.args) for fact in added
    )
