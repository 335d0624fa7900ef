"""Criteria δ and their evaluation functions ``f_δ`` (Section 3).

The framework is parametric in a set ``Δ`` of criteria one wants the
explanation query to optimise.  For every criterion ``δ`` there is a
function ``f^{J,r}_{δ,λ}(q_O)`` measuring how well a query meets the
criterion; the paper assumes all such functions share the same range,
which we fix to ``[0, 1]`` (higher is better).

The six criteria named in the paper are provided as ready-made
:class:`Criterion` instances:

* ``δ1`` — many positives matched          (``f_δ1 = |matched λ+| / |λ+|``)
* ``δ2`` — few positives unmatched         (``f_δ2 = 1 - |unmatched λ+| / |λ+|``)
* ``δ3`` — many negatives unmatched        (``f_δ3 = |unmatched λ-| / |λ-|``)
* ``δ4`` — few negatives matched           (``f_δ4 = 1 - |matched λ-| / |λ-|``)
* ``δ5`` — few atoms in the query          (``f_δ5 = 1 / #atoms``)
* ``δ6`` — few disjuncts (UCQs)            (``f_δ6 = 1 / #disjuncts``)

With these normalisations δ1/δ2 and δ3/δ4 coincide numerically; they are
kept separate because user-defined weightings refer to them by name (and
because alternative normalisations may distinguish them).  Applications
can register additional criteria through :class:`CriteriaRegistry` or by
passing :class:`Criterion` objects directly.

δ1–δ4 are pure confusion-matrix arithmetic: they only read the four
match *counts* of the context's profile, never the underlying tuple
sets.  On the bitset scoring path
(:mod:`repro.engine.verdicts`) the profile is a
:class:`~repro.engine.verdicts.BitsetVerdictProfile`, whose counts are
popcounts over a verdict bitset row — so all six paper criteria reduce
to integer arithmetic (δ5/δ6 were arithmetic over query syntax
already).  The property suite in
``tests/core/test_criteria_properties.py`` pins the numeric coincidence
and monotonicity laws on both profile representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import CriterionError
from ..obdm.certain_answers import OntologyQuery
from ..queries.cq import ConjunctiveQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .labeling import Labeling
from .matching import MatchProfile


@dataclass(frozen=True)
class EvaluationContext:
    """Everything a criterion function may need to score one query."""

    query: OntologyQuery
    profile: MatchProfile
    labeling: Labeling
    radius: int

    def atom_count(self) -> int:
        if isinstance(self.query, UnionOfConjunctiveQueries):
            return self.query.atom_count()
        return self.query.atom_count()

    def disjunct_count(self) -> int:
        if isinstance(self.query, UnionOfConjunctiveQueries):
            return self.query.disjunct_count()
        return 1


CriterionFunction = Callable[[EvaluationContext], float]


@dataclass(frozen=True)
class Criterion:
    """A named criterion with its evaluation function ``f_δ``."""

    key: str
    description: str
    function: CriterionFunction

    def evaluate(self, context: EvaluationContext) -> float:
        """Evaluate ``f_δ`` and validate that the value lies in ``[0, 1]``."""
        value = float(self.function(context))
        if not 0.0 <= value <= 1.0:
            raise CriterionError(
                f"criterion {self.key!r} returned {value}, outside the range [0, 1]"
            )
        return value

    def __str__(self):
        return f"{self.key}: {self.description}"


# ---------------------------------------------------------------------------
# The paper's criteria
# ---------------------------------------------------------------------------

def _coverage(context: EvaluationContext) -> float:
    return context.profile.positive_coverage()


def _few_positives_missed(context: EvaluationContext) -> float:
    profile = context.profile
    if profile.positive_total == 0:
        return 0.0
    return 1.0 - profile.false_negatives / profile.positive_total


def _many_negatives_excluded(context: EvaluationContext) -> float:
    profile = context.profile
    if profile.negative_total == 0:
        return 1.0
    return profile.true_negatives / profile.negative_total


def _few_negatives_matched(context: EvaluationContext) -> float:
    profile = context.profile
    if profile.negative_total == 0:
        return 1.0
    return 1.0 - profile.false_positives / profile.negative_total


def _few_atoms(context: EvaluationContext) -> float:
    atoms = context.atom_count()
    if atoms <= 0:
        raise CriterionError("query has no atoms")
    return 1.0 / atoms


def _few_disjuncts(context: EvaluationContext) -> float:
    disjuncts = context.disjunct_count()
    if disjuncts <= 0:
        raise CriterionError("query has no disjuncts")
    return 1.0 / disjuncts


DELTA_1 = Criterion(
    "delta1",
    "Are there many tuples of λ+ whose border the query J-matches?",
    _coverage,
)
DELTA_2 = Criterion(
    "delta2",
    "Are there few tuples of λ+ whose border the query does not J-match?",
    _few_positives_missed,
)
DELTA_3 = Criterion(
    "delta3",
    "Are there many tuples of λ- whose border the query does not J-match?",
    _many_negatives_excluded,
)
DELTA_4 = Criterion(
    "delta4",
    "Are there few tuples of λ- whose border the query J-matches?",
    _few_negatives_matched,
)
DELTA_5 = Criterion(
    "delta5",
    "Are there few atoms used by the query?",
    _few_atoms,
)
DELTA_6 = Criterion(
    "delta6",
    "Are there few disjuncts used by the query (UCQs)?",
    _few_disjuncts,
)

PAPER_CRITERIA: Tuple[Criterion, ...] = (
    DELTA_1,
    DELTA_2,
    DELTA_3,
    DELTA_4,
    DELTA_5,
    DELTA_6,
)

# Additional generally useful criteria (not in the paper's list, usable in
# custom Δ sets; they exercise the same extension mechanism a user would).

PRECISION = Criterion(
    "precision",
    "Among matched tuples, how many are positive?",
    lambda context: context.profile.precision(),
)
F1 = Criterion(
    "f1",
    "Harmonic mean of precision and positive coverage.",
    lambda context: context.profile.f1(),
)
ACCURACY = Criterion(
    "accuracy",
    "Fraction of labelled tuples on which the query agrees with λ.",
    lambda context: context.profile.accuracy(),
)


class CriteriaRegistry:
    """A registry mapping criterion keys to :class:`Criterion` objects."""

    def __init__(self, criteria: Iterable[Criterion] = PAPER_CRITERIA):
        self._criteria: Dict[str, Criterion] = {}
        for criterion in criteria:
            self.register(criterion)

    def register(self, criterion: Criterion) -> None:
        if criterion.key in self._criteria and self._criteria[criterion.key] != criterion:
            raise CriterionError(f"criterion {criterion.key!r} is already registered")
        self._criteria[criterion.key] = criterion

    def register_function(self, key: str, description: str, function: CriterionFunction) -> Criterion:
        criterion = Criterion(key, description, function)
        self.register(criterion)
        return criterion

    def get(self, key: str) -> Criterion:
        try:
            return self._criteria[key]
        except KeyError:
            raise CriterionError(
                f"unknown criterion {key!r}; registered: {sorted(self._criteria)}"
            ) from None

    def resolve(self, items: Iterable[Union[str, Criterion]]) -> List[Criterion]:
        """Turn a mixed list of keys and Criterion objects into criteria."""
        resolved = []
        for item in items:
            if isinstance(item, Criterion):
                resolved.append(item)
            else:
                resolved.append(self.get(item))
        return resolved

    def keys(self) -> List[str]:
        return sorted(self._criteria)

    def __contains__(self, key: str) -> bool:
        return key in self._criteria

    def __len__(self) -> int:
        return len(self._criteria)


DEFAULT_REGISTRY = CriteriaRegistry(PAPER_CRITERIA + (PRECISION, F1, ACCURACY))

#: The built-in criteria.  Each reads only its profile's four
#: confusion-matrix counts and the query's atom and disjunct counts, so
#: with every criterion of Δ in this set a candidate's criterion values,
#: and hence its Z-score, are a function of (TP, FP, #disjuncts, #atoms).
#: Ranking relies on that to score one such score class at a time
#: (:meth:`repro.core.best_describe.QueryScorer.scores_by_counts`); a
#: custom criterion may read anything, so its candidates are scored one
#: by one.  (Each built-in criterion is also componentwise monotone in
#: (TP, FP), hence the name; nothing relies on that.)
MONOTONE_CRITERIA: FrozenSet[Criterion] = frozenset(
    PAPER_CRITERIA + (PRECISION, F1, ACCURACY)
)


def evaluate_criteria(
    criteria: Sequence[Criterion], context: EvaluationContext
) -> Dict[str, float]:
    """Evaluate every criterion of Δ on one context, keyed by criterion key."""
    return {criterion.key: criterion.evaluate(context) for criterion in criteria}
