"""Certain answers of ontology queries over OBDM systems.

Given an OBDM specification ``J = <O, S, M>``, an ``S``-database ``D``
and a query ``q_O`` over the ontology, the certain answers
``cert_{q_O, J}^D`` are the tuples of constants that satisfy ``q_O`` in
**every** model of ``<J, D>`` (Section 2 of the paper).  Under sound
GAV mappings and a DL-Lite_R ontology this can be computed in two
equivalent ways, both implemented here:

* ``rewriting`` — compute the perfect rewriting of ``q_O`` w.r.t. ``O``
  (a UCQ) and evaluate it over the retrieved ABox ``A(M, D)``;
* ``chase``     — saturate ``A(M, D)`` with the positive axioms of ``O``
  (restricted chase with labelled nulls) and evaluate ``q_O`` directly,
  discarding answers that contain nulls.

The explanation framework calls this engine once per (query, border)
pair, so the engine routes every expensive step through a shared
:class:`~repro.engine.cache.EvaluationCache`: rewritings are memoized by
query signature, and chase saturation is memoized per ABox fact set, so
repeated ``is_certain_answer`` calls against the same border no longer
re-run the chase.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple, Union

from ..dl.ontology import Ontology
from ..engine.cache import CacheLimits, EvaluationCache, VerdictPolicy
from ..errors import CertainAnswerError
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.evaluation import FactIndex, contains_tuple, evaluate
from ..queries.terms import Constant
from ..queries.ucq import UnionOfConjunctiveQueries
from .chase import ChaseEngine, tuple_has_null
from .database import SourceDatabase
from .mapping import Mapping
from .rewriting import PerfectRefRewriter
from .virtual_abox import VirtualABox, retrieve_abox

OntologyQuery = Union[ConjunctiveQuery, UnionOfConjunctiveQueries]

STRATEGIES = ("rewriting", "chase")


class CertainAnswerEngine:
    """Computes certain answers for a fixed specification ``J = <O, S, M>``."""

    def __init__(
        self,
        ontology: Ontology,
        mapping: Mapping,
        strategy: str = "rewriting",
        chase_depth: int = 3,
    ):
        if strategy not in STRATEGIES:
            raise CertainAnswerError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.ontology = ontology
        self.mapping = mapping
        self.strategy = strategy
        self.chase_depth = chase_depth
        self._rewriter = PerfectRefRewriter(ontology)
        # The engine owns its cache: the memoized saturator/rewriter close
        # over this ontology, so sharing happens via the engine, never by
        # injecting a cache built for a different specification.
        self.cache = EvaluationCache(
            saturator=self._chase_facts, rewriter=self._rewriter.rewrite
        )
        # Selects the scoring path: verdict rows (default) or the
        # per-pair Definition 3.4 oracle the differential tests compare
        # them against.
        self.verdicts = VerdictPolicy()

    # -- ABox handling -------------------------------------------------------

    def retrieve(self, database: SourceDatabase) -> VirtualABox:
        """Retrieve the virtual ABox of a source database."""
        return retrieve_abox(self.mapping, database)

    def _chase_facts(self, facts: FrozenSet[Atom]) -> FrozenSet[Atom]:
        """Chase a fact set with a fresh engine (deterministic null names)."""
        engine = ChaseEngine(self.ontology, max_depth=self.chase_depth)
        return engine.chase(facts)

    def saturate(self, abox: VirtualABox) -> FactIndex:
        """Index over the chased ABox, memoized per fact set and depth.

        ``chase_depth`` is part of the memo key: reconfiguring the depth
        on a live engine must not serve saturations chased at the old
        bound.
        """
        return self.cache.saturated_index(abox.facts, key=(abox.facts, self.chase_depth))

    # -- rewriting cache ---------------------------------------------------------

    def rewrite(self, query: OntologyQuery) -> UnionOfConjunctiveQueries:
        """Perfect rewriting of a query, cached by canonical signature."""
        return self.cache.rewriting(query)

    # -- cache lifecycle ---------------------------------------------------------

    def configure_cache_limits(self, limits: CacheLimits) -> None:
        """Bound the memo layers for long-lived use (LRU eviction beyond).

        The engine stays correct under any limits — keys are content-
        addressed, so eviction only costs recomputation; eviction counts
        land in ``cache.stats.evictions``.
        """
        self.cache.configure_limits(limits)

    def cache_fingerprint(self) -> str:
        """Content hash of the specification the memo values depend on.

        Memo keys are content-addressed *within one specification*: the
        chase and the rewriter are functions of the ontology, border-ABox
        retrieval of the mapping.  Snapshots are stamped with this hash
        so a restarted engine refuses memos computed under a different
        (e.g. since-updated) ontology or mapping, where equal keys would
        silently map to different values.
        """
        import hashlib

        payload = "\n".join(
            sorted(str(axiom) for axiom in self.ontology.axioms)
            + sorted(str(assertion) for assertion in self.mapping)
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def save_cache(self, path) -> dict:
        """Persist the memo state so a restarted engine starts warm."""
        return self.cache.save(path, fingerprint=self.cache_fingerprint())

    def load_cache(self, path) -> dict:
        """Merge a persisted memo snapshot back in (live entries win).

        Raises ``ValueError`` when the snapshot was saved against a
        different specification (see :meth:`cache_fingerprint`).
        """
        return self.cache.load(path, fingerprint=self.cache_fingerprint())

    # -- certain answers ------------------------------------------------------------

    def certain_answers(
        self,
        query: OntologyQuery,
        database: SourceDatabase,
        abox: Optional[VirtualABox] = None,
    ) -> Set[Tuple[Constant, ...]]:
        """All certain answers of *query* w.r.t. ``J`` and *database*."""
        abox = abox if abox is not None else self.retrieve(database)
        if self.strategy == "rewriting":
            return self.rewrite(query).evaluate((), index=abox.index)
        saturated = self.saturate(abox)
        answers = self._evaluate_plain(query, saturated)
        return {answer for answer in answers if not tuple_has_null(answer)}

    def is_certain_answer(
        self,
        query: OntologyQuery,
        answer: Sequence,
        database: SourceDatabase,
        abox: Optional[VirtualABox] = None,
    ) -> bool:
        """Membership test ``answer ∈ cert_{query, J}^database``.

        This is the primitive behind ``J``-matching (Definition 3.4): the
        tuple is bound into the query before evaluation, which avoids
        enumerating the full answer set.
        """
        normalized = tuple(
            value if isinstance(value, Constant) else Constant(value) for value in answer
        )
        abox = abox if abox is not None else self.retrieve(database)
        if self.strategy == "rewriting":
            return self.rewrite(query).contains_tuple(normalized, (), index=abox.index)
        saturated = self.saturate(abox)
        if isinstance(query, ConjunctiveQuery):
            return contains_tuple(query, normalized, (), index=saturated)
        return query.contains_tuple(normalized, (), index=saturated)

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _evaluate_plain(query: OntologyQuery, index: FactIndex) -> Set[Tuple[Constant, ...]]:
        if isinstance(query, ConjunctiveQuery):
            return evaluate(query, (), index=index)
        return query.evaluate((), index=index)
