"""``J``-matching of borders (Definition 3.4) and match profiles.

A query ``q_O`` *J-matches* the border ``B_{t,r}(D)`` when ``t`` is a
certain answer of ``q_O`` w.r.t. the OBDM specification ``J`` and the
sub-database consisting of the border's atoms.  Proposition 3.5 states
that matching is monotone in the radius: if ``q_O`` matches ``B_{t,r}``
then it matches ``B_{t,r+1}``.

The :class:`MatchEvaluator` below is the one place border retrieval
happens, in two shapes over one specification-wide
:class:`~repro.engine.cache.DerivationTable`.  Both first extend the
table by at most one witnessed mapping pass over the source facts it
does not cover yet and then decide witness containment with one
provenance pass.  The pass runs the mapping's compiled plans
(:meth:`~repro.obdm.mapping.Mapping.compiled`) straight on the fresh
source facts: each one-atom CQ assertion is a filter-and-project on the
fact's interned argument ids, and join and algebra sources run the
generic witnessed evaluation over a by-predicate view of the same facts;
no restricted database is built.  :meth:`MatchEvaluator.border_provenance` returns that
pass's encoded fact → border-bitset map, from which the match kernel
builds its integer index.  :meth:`MatchEvaluator.border_aboxes` serves
per-border ABoxes (one border is a batch of one) to the per-pair
oracle, candidate generation, refinement and separability: borders
already retrieved hit the shared
:class:`~repro.engine.cache.EvaluationCache`, the rest are
projections of the map.  Because mappings are monotone, each ABox equals
the one retrieved from the border's own sub-database, fact for fact.  J-match
verdicts are memoized in the same cache (keyed by query signature ×
border, so verdicts are reused across evaluators and labelings).
:class:`MatchProfile` aggregates, for one query, which positive and
negative tuples were matched — the raw material of the criteria δ1–δ4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from ..engine.cache import DerivationTable, EncodedFact
from ..errors import CriterionError, ExplanationError
from ..obdm.certain_answers import OntologyQuery
from ..obdm.system import OBDMSystem
from ..obdm.virtual_abox import VirtualABox
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries, query_key
from .border import Border, BorderComputer
from .labeling import ConstantTuple, Labeling, RawTuple, normalize_tuple


class MatchStatistics:
    """Confusion-matrix arithmetic over the four match counts.

    Subclasses provide ``true_positives`` / ``false_negatives`` /
    ``false_positives`` / ``true_negatives``; everything here derives
    from those four integers.  :class:`MatchProfile` backs them with
    frozensets, :class:`~repro.engine.verdicts.BitsetVerdictProfile`
    with popcounts over a bitset row — sharing this mixin is what makes
    the criteria functions ``f_δ1``–``f_δ4`` pure count arithmetic on
    either path.
    """

    # -- counts ---------------------------------------------------------------

    @property
    def positive_total(self) -> int:
        return self.true_positives + self.false_negatives

    @property
    def negative_total(self) -> int:
        return self.true_negatives + self.false_positives

    # -- ratios ------------------------------------------------------------------

    def positive_coverage(self) -> float:
        """Fraction of ``λ+`` matched (the paper's ``f_δ1``)."""
        if self.positive_total == 0:
            return 0.0
        return self.true_positives / self.positive_total

    def negative_exclusion(self) -> float:
        """Fraction of ``λ-`` *not* matched (the paper's ``f_δ4``)."""
        if self.negative_total == 0:
            return 1.0
        return self.true_negatives / self.negative_total

    def precision(self) -> float:
        """Matched positives over all matched tuples."""
        matched = self.true_positives + self.false_positives
        if matched == 0:
            return 0.0
        return self.true_positives / matched

    def recall(self) -> float:
        return self.positive_coverage()

    def f1(self) -> float:
        precision, recall = self.precision(), self.recall()
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def accuracy(self) -> float:
        total = self.positive_total + self.negative_total
        if total == 0:
            return 0.0
        return (self.true_positives + self.true_negatives) / total

    def is_perfect_separation(self) -> bool:
        """Conditions (1) and (2) of Section 3: all positives, no negatives."""
        return self.false_negatives == 0 and self.false_positives == 0

    def __str__(self):
        return (
            f"{type(self).__name__}(+: {self.true_positives}/{self.positive_total}, "
            f"-: {self.false_positives}/{self.negative_total} matched)"
        )


@dataclass(frozen=True)
class CountProfile(MatchStatistics):
    """A profile carrying only the four confusion-matrix counts.

    The one context on which ranking evaluates a whole score class
    (:meth:`repro.core.best_describe.QueryScorer.count_context`): the
    class's members share their counts, not their tuple sets.  The set
    views raise :class:`~repro.errors.CriterionError` explicitly, so a
    criterion that reads tuple sets fails loudly here instead of with a
    bare ``AttributeError``.
    """

    true_positives: int
    false_negatives: int
    false_positives: int
    true_negatives: int

    def _no_sets(self, view: str):
        raise CriterionError(
            f"CountProfile has no {view!r}: it carries only confusion-matrix "
            "counts (a score class has no concrete tuple sets)"
        )

    @property
    def positives_matched(self):
        self._no_sets("positives_matched")

    @property
    def positives_unmatched(self):
        self._no_sets("positives_unmatched")

    @property
    def negatives_matched(self):
        self._no_sets("negatives_matched")

    @property
    def negatives_unmatched(self):
        self._no_sets("negatives_unmatched")


@dataclass(frozen=True)
class MatchProfile(MatchStatistics):
    """Which labelled tuples a query matched, split by label."""

    positives_matched: FrozenSet[ConstantTuple]
    positives_unmatched: FrozenSet[ConstantTuple]
    negatives_matched: FrozenSet[ConstantTuple]
    negatives_unmatched: FrozenSet[ConstantTuple]

    @property
    def true_positives(self) -> int:
        return len(self.positives_matched)

    @property
    def false_negatives(self) -> int:
        return len(self.positives_unmatched)

    @property
    def false_positives(self) -> int:
        return len(self.negatives_matched)

    @property
    def true_negatives(self) -> int:
        return len(self.negatives_unmatched)


class MatchEvaluator:
    """Evaluates Definition 3.4 for queries against cached borders."""

    def __init__(self, system: OBDMSystem, radius: int = 1, border_computer: Optional[BorderComputer] = None):
        if radius < 0:
            raise ExplanationError(f"radius must be a natural number, got {radius}")
        self.system = system
        self.radius = radius
        self.borders = border_computer or BorderComputer(system.database)
        self._shared_cache = system.specification.engine.cache

    # -- border ABox handling -----------------------------------------------------

    def border_of(self, raw: RawTuple, radius: Optional[int] = None) -> Border:
        return self.borders.border(raw, self.radius if radius is None else radius)

    def border_aboxes(self, borders: Sequence[Border]) -> List[VirtualABox]:
        """The retrieved ABox of each border, missing ones from one tabled pass.

        The shared cache keys each ABox by the border's atom set, so
        evaluators over the same specification reuse each other's
        retrievals — and that layer is LRU-bounded under CacheLimits,
        so a long-lived evaluator (the explanation service keeps one
        per radius) pins no ABox of its own.
        """
        return self._shared_cache.border_aboxes(
            [border.atoms for border in borders], self._retrieve
        )

    def border_provenance(self, borders: Sequence[Border]) -> Dict[EncodedFact, int]:
        """Each retrieved fact of the borders → the mask of the borders holding it.

        Facts come encoded as ``(predicate, constant ids)`` under the
        shared cache's :attr:`~repro.engine.cache.EvaluationCache.interner`
        (``interner.decode`` turns one back into its atom).  Bit ``i``
        stands for ``borders[i]``: the fact is in that border's
        retrieved ABox.  Read straight off the derivation table
        (:meth:`~repro.engine.cache.DerivationTable.provenance`), which
        encoded each fact once when it tabled it, so no per-border ABox
        is built or looked up and nothing is encoded here; the match
        kernel builds its integer index from this map.
        """
        atom_sets = [border.atoms for border in borders]
        return self._derivations(atom_sets).provenance(atom_sets)

    def _retrieve(self, atom_sets: List[FrozenSet[Atom]]) -> List[VirtualABox]:
        """Border ABoxes cut out of the derivation table of the current database."""
        name = f"{self.system.database.name}|restricted"
        return [
            VirtualABox(facts, source_name=name)
            for facts in self._derivations(atom_sets).border_facts(atom_sets)
        ]

    def _derivations(self, atom_sets: Sequence[FrozenSet[Atom]]) -> DerivationTable:
        """The current database's derivation table, covering every set's facts.

        The pass is the mapping's compiled plans
        (:meth:`~repro.obdm.mapping.CompiledMapping.derivations`) over
        the fresh source facts themselves: no restricted database is
        built.
        """
        database = self.system.database
        mapping = self.system.specification.mapping
        compiled = mapping.compiled()
        table = self._shared_cache.derivation_table(database.fingerprint())
        schema = database.schema

        def derive(fresh, scope, interner):
            return compiled.derivations(fresh, scope, interner, schema)

        table.cover(frozenset().union(*atom_sets), derive, local=mapping.is_local())
        return table

    # -- Definition 3.4 -----------------------------------------------------------

    def matches(self, query: OntologyQuery, raw: RawTuple, radius: Optional[int] = None) -> bool:
        """``True`` iff *query* J-matches ``B_{t,radius}(D)`` for ``t = raw``."""
        border = self.border_of(raw, radius)
        return self.matches_border(query, border)

    def matches_border(self, query: OntologyQuery, border: Border) -> bool:
        """``True`` iff *query* J-matches the given precomputed border.

        Verdicts are memoized in the specification's shared evaluation
        cache under (query signature, border); the border value embeds
        its tuple, radius and atom layers, so the key is content-
        addressed and remains sound across evaluators of the same ``J``.
        """
        key = normalize_tuple(border.tuple)
        if self._query_arity(query) != len(key):
            return False
        return self._shared_cache.match(
            (query_key(query), border), lambda: self._evaluate_match(query, key, border)
        )

    def _evaluate_match(self, query: OntologyQuery, key: ConstantTuple, border: Border) -> bool:
        # The retrieved ABox of the border sub-database is cached; once it is
        # available the source database itself is not consulted again, so the
        # full database can be passed without building the restriction.
        [abox] = self.border_aboxes([border])
        return self.system.specification.is_certain_answer(
            query, key, self.system.database, abox=abox
        )

    @staticmethod
    def _query_arity(query: OntologyQuery) -> int:
        return query.arity

    # -- batch evaluation --------------------------------------------------------------

    def match_set(
        self, query: OntologyQuery, raws: Iterable[RawTuple], radius: Optional[int] = None
    ) -> Set[ConstantTuple]:
        """The subset of *raws* whose borders the query J-matches."""
        matched: Set[ConstantTuple] = set()
        for raw in raws:
            border = self.border_of(raw, radius)
            if self.matches_border(query, border):
                matched.add(border.tuple)
        return matched

    def profile(
        self, query: OntologyQuery, labeling: Labeling, radius: Optional[int] = None
    ) -> MatchProfile:
        """Full match profile of a query against a labeling."""
        positives = {normalize_tuple(t) for t in labeling.positives}
        negatives = {normalize_tuple(t) for t in labeling.negatives}
        positives_matched = self.match_set(query, positives, radius)
        negatives_matched = self.match_set(query, negatives, radius)
        return MatchProfile(
            positives_matched=frozenset(positives_matched),
            positives_unmatched=frozenset(positives - positives_matched),
            negatives_matched=frozenset(negatives_matched),
            negatives_unmatched=frozenset(negatives - negatives_matched),
        )

    # -- Proposition 3.5 ------------------------------------------------------------------

    def is_monotone_in_radius(
        self, query: OntologyQuery, raw: RawTuple, max_radius: int
    ) -> bool:
        """Empirically check Proposition 3.5 for one query and one tuple.

        Returns ``True`` when, for every ``r < max_radius``, a match at
        radius ``r`` implies a match at radius ``r + 1`` (this should
        always hold; the property tests rely on it).
        """
        previous = None
        for radius in range(max_radius + 1):
            current = self.matches(query, raw, radius)
            if previous is True and current is False:
                return False
            previous = current
        return True
