"""Structured explanation results and their textual rendering.

The explainer returns :class:`ExplanationReport` objects: a ranked list
of :class:`Explanation` entries (query, Z-score, criterion breakdown,
match profile) plus the parameters of the run (radius, criteria,
expression), so that results are self-describing and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..obdm.certain_answers import OntologyQuery
from ..queries.ucq import UnionOfConjunctiveQueries
from .best_describe import ScoredQuery, check_limit
from .labeling import Labeling
from .matching import MatchProfile


@dataclass(frozen=True)
class Explanation:
    """One candidate explanation of the classifier's behaviour."""

    rank: int
    query: OntologyQuery
    score: float
    criterion_values: Tuple[Tuple[str, float], ...]
    profile: MatchProfile

    @property
    def values(self) -> Dict[str, float]:
        return dict(self.criterion_values)

    def is_perfect(self) -> bool:
        return self.profile.is_perfect_separation()

    def summary(self) -> str:
        return (
            f"#{self.rank}  Z={self.score:.3f}  "
            f"covers {self.profile.true_positives}/{self.profile.positive_total} positives, "
            f"{self.profile.false_positives}/{self.profile.negative_total} negatives  |  {self.query}"
        )

    @staticmethod
    def from_scored(rank: int, scored: ScoredQuery) -> "Explanation":
        return Explanation(
            rank=rank,
            query=scored.query,
            score=scored.score,
            criterion_values=scored.criterion_values,
            profile=scored.profile,
        )


@dataclass(frozen=True)
class ExplanationReport:
    """The full outcome of one explanation run."""

    labeling_name: str
    radius: int
    criteria_keys: Tuple[str, ...]
    expression_description: str
    explanations: Tuple[Explanation, ...]
    candidate_count: int

    # -- access -----------------------------------------------------------

    @property
    def best(self) -> Optional[Explanation]:
        return self.explanations[0] if self.explanations else None

    def top(self, k: Optional[int]) -> Tuple[Explanation, ...]:
        """The first *k* explanations (``None``: all); a negative *k* is refused."""
        check_limit(k)
        return self.explanations[:k]

    def __len__(self) -> int:
        return len(self.explanations)

    def __iter__(self) -> Iterator[Explanation]:
        return iter(self.explanations)

    def perfect_explanations(self) -> List[Explanation]:
        return [explanation for explanation in self.explanations if explanation.is_perfect()]

    # -- rendering ------------------------------------------------------------

    def render(self, top_k: Optional[int] = 10) -> str:
        """Human-readable multi-line rendering of the first *top_k* entries.

        ``None`` renders every entry; a negative *top_k* is refused.
        """
        shown = self.top(top_k)
        lines = [
            f"Explanation report for λ = {self.labeling_name!r}",
            f"  radius r = {self.radius}",
            f"  criteria Δ = {list(self.criteria_keys)}",
            f"  expression Z = {self.expression_description}",
            f"  candidates scored = {self.candidate_count}",
            "",
        ]
        if not shown:
            lines.append("  (no candidate explanations)")
        header = f"  {'rank':>4}  {'Z':>6}  {'pos':>7}  {'neg':>7}  query"
        lines.append(header)
        lines.append("  " + "-" * (len(header) + 20))
        for explanation in shown:
            profile = explanation.profile
            lines.append(
                f"  {explanation.rank:>4}  {explanation.score:>6.3f}  "
                f"{profile.true_positives:>3}/{profile.positive_total:<3}  "
                f"{profile.false_positives:>3}/{profile.negative_total:<3}  "
                f"{explanation.query}"
            )
        return "\n".join(lines)

    def to_rows(self) -> List[Dict[str, object]]:
        """Tabular form (list of dictionaries), convenient for benchmarks."""
        rows = []
        for explanation in self.explanations:
            row: Dict[str, object] = {
                "rank": explanation.rank,
                "score": explanation.score,
                "query": str(explanation.query),
                "true_positives": explanation.profile.true_positives,
                "false_positives": explanation.profile.false_positives,
                "positive_total": explanation.profile.positive_total,
                "negative_total": explanation.profile.negative_total,
            }
            row.update(explanation.values)
            rows.append(row)
        return rows

    def __str__(self):
        return self.render()


def build_report(
    labeling: Labeling,
    radius: int,
    criteria_keys: Sequence[str],
    expression_description: str,
    ranking: Sequence[ScoredQuery],
    candidate_count: int,
    top_k: Optional[int] = None,
) -> ExplanationReport:
    """Assemble a report from a ranked list of scored queries.

    *top_k* keeps the first ``top_k`` entries (``None`` keeps all, ``0``
    none); a negative value is refused rather than silently dropping
    entries off the end of the ranking.
    """
    check_limit(top_k)
    limited = ranking if top_k is None else ranking[:top_k]
    explanations = tuple(
        Explanation.from_scored(rank + 1, scored) for rank, scored in enumerate(limited)
    )
    return ExplanationReport(
        labeling_name=labeling.name,
        radius=radius,
        criteria_keys=tuple(criteria_keys),
        expression_description=expression_description,
        explanations=explanations,
        candidate_count=candidate_count,
    )
