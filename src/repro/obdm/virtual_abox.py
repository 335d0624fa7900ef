"""Retrieval of the virtual ABox.

Given a mapping ``M`` and a source database ``D``, the *retrieved* (or
virtual) ABox ``A(M, D)`` is the set of ontology facts obtained by
applying every mapping assertion to ``D``.  Under sound mappings, the
models of ``<J, D>`` are exactly the models of the DL knowledge base
``<O, A(M, D)>``, which is why certain answers can be computed by
rewriting over the retrieved ABox (split approach) or by saturating it
(chase approach).

The :class:`VirtualABox` wrapper keeps the retrieved facts together with
a fact index so repeated query evaluations (the explanation framework
evaluates many candidate queries over the same border) are cheap.

A *witnessed* retrieval (``retrieve_abox(..., witnessed=True)``) also
keeps, per fact, the witnesses of its derivations — the sets of source
facts each derivation read (:meth:`~repro.obdm.mapping.Mapping.iter_witnessed`).
Mappings are monotone, so the ABox retrieved from any sub-database is
exactly the facts with a witness inside it: one witnessed retrieval over
the union of many borders serves all of them
(:class:`~repro.engine.cache.DerivationTable` tables the witnesses and
decides, in one provenance pass, which borders' ABoxes hold each fact).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..queries.atoms import Atom
from ..queries.evaluation import FactIndex
from .database import SourceDatabase
from .mapping import Mapping, Witness


class VirtualABox:
    """The ontology-level facts retrieved from a source database."""

    def __init__(
        self,
        facts: Iterable[Atom],
        source_name: str = "D",
        witnesses: Optional[Dict[Atom, Set[Witness]]] = None,
    ):
        self._facts: FrozenSet[Atom] = frozenset(facts)
        self.source_name = source_name
        self.witnesses = witnesses
        """Fact → witnesses of its derivations (witnessed retrievals only)."""
        self._index: Optional[FactIndex] = None
        self._sorted: Optional[Tuple[Atom, ...]] = None

    @property
    def facts(self) -> FrozenSet[Atom]:
        return self._facts

    @property
    def index(self) -> FactIndex:
        if self._index is None:
            self._index = FactIndex(self._facts)
        return self._index

    def __getstate__(self):
        # The fact index and the sorted view are derivable content:
        # pickling them would only fatten snapshots (the same discipline
        # as Border's cached hash/atom union).  Both are rebuilt lazily
        # in the loading process.
        state = dict(self.__dict__)
        state["_index"] = None
        state["_sorted"] = None
        return state

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self):
        # Sorting thousands of retrieved facts on *every* iteration made
        # repeated scans quadratic in practice; the fact set is frozen,
        # so the sorted view is computed once and cached.
        if self._sorted is None:
            self._sorted = tuple(sorted(self._facts))
        return iter(self._sorted)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def predicates(self) -> Set[str]:
        return {fact.predicate for fact in self._facts}

    def __str__(self):
        return f"VirtualABox({len(self)} facts from {self.source_name!r})"


def retrieve_abox(
    mapping: Mapping, database: SourceDatabase, witnessed: bool = False
) -> VirtualABox:
    """Apply the mapping to the database and wrap the result.

    The mapping's facts are consumed as a stream
    (:meth:`~repro.obdm.mapping.Mapping.iter_apply`): on a pushdown
    backend the retrieved ABox is the only thing materialised — never
    the source fact set, a fact index, or a catalog copy.  With
    *witnessed* the in-memory witnessed pass runs instead and the ABox
    carries each fact's witnesses.
    """
    if not witnessed:
        return VirtualABox(mapping.iter_apply(database), source_name=database.name)
    witnesses: Dict[Atom, Set[Witness]] = {}
    for fact, witness in mapping.iter_witnessed(database):
        witnesses.setdefault(fact, set()).add(witness)
    return VirtualABox(witnesses.keys(), source_name=database.name, witnesses=witnesses)
