"""Scoring expressions ``Z`` and Z-scores (Section 3, Example 3.8).

Once every criterion of ``Δ`` has been evaluated, the framework combines
the values with a mathematical expression ``Z`` having one variable
``z_δ`` per criterion; the resulting number is the *Z-score* of the
query, and the best-describing query maximises it (Definition 3.7).

The expression used in Example 3.8 is the weighted average

    Z = (α·z_δ1 + β·z_δ4 + γ·z_δ5) / (α + β + γ)

implemented by :class:`WeightedAverage`.  Other natural combinators are
provided (weighted product/geometric mean, minimum, harmonic mean) plus
an escape hatch for arbitrary callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ScoringError


class ScoringExpression:
    """Base class: combines criterion values into a single Z-score."""

    def variables(self) -> Tuple[str, ...]:
        """The criterion keys the expression refers to."""
        raise NotImplementedError

    def score(self, values: Mapping[str, float]) -> float:
        """Evaluate the expression on a full assignment of its variables.

        Z must be a function of the criterion values alone: ranking
        scores one candidate per score class and gives its Z-score to
        every candidate with the same criterion values
        (:meth:`repro.core.best_describe.BestDescriptionSearch.rank`).
        """
        raise NotImplementedError

    def _require(self, values: Mapping[str, float]) -> None:
        missing = [key for key in self.variables() if key not in values]
        if missing:
            raise ScoringError(
                f"missing criterion values for {missing}; provided: {sorted(values)}"
            )


def _validate_weight_vector(name: str, weights: Tuple[Tuple[str, float], ...]) -> None:
    """Shared weight checks for the weighted combinators.

    Rejects non-finite weights (they silently poison every score with
    ``nan``/``inf``) and all-zero weight vectors (the weighted average
    would divide by zero, the weighted product would constantly be 1) at
    construction time, where the mistake is visible.
    """
    if not weights:
        raise ScoringError(f"{name} needs at least one weight")
    for key, weight in weights:
        if not math.isfinite(weight):
            raise ScoringError(f"{name} weight for {key!r} must be finite, got {weight}")
    if all(weight == 0 for _, weight in weights):
        raise ScoringError(
            f"{name} received an all-zero weight vector "
            f"({', '.join(key for key, _ in weights)}); at least one criterion "
            "must carry non-zero weight"
        )


@dataclass(frozen=True)
class WeightedAverage(ScoringExpression):
    """``Z = Σ w_δ · z_δ / Σ w_δ`` — the expression of Example 3.8."""

    weights: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        _validate_weight_vector("WeightedAverage", self.weights)
        total = sum(weight for _, weight in self.weights)
        if total <= 0:
            raise ScoringError("WeightedAverage weights must sum to a positive number")

    @staticmethod
    def of(weights: Mapping[str, float]) -> "WeightedAverage":
        return WeightedAverage(tuple(sorted(weights.items())))

    def variables(self) -> Tuple[str, ...]:
        return tuple(key for key, _ in self.weights)

    def score(self, values: Mapping[str, float]) -> float:
        self._require(values)
        total_weight = sum(weight for _, weight in self.weights)
        weighted = sum(weight * values[key] for key, weight in self.weights)
        return weighted / total_weight


@dataclass(frozen=True)
class WeightedProduct(ScoringExpression):
    """``Z = Π z_δ^{w_δ}`` (weighted geometric combination, zero-sensitive)."""

    weights: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        _validate_weight_vector("WeightedProduct", self.weights)

    @staticmethod
    def of(weights: Mapping[str, float]) -> "WeightedProduct":
        return WeightedProduct(tuple(sorted(weights.items())))

    def variables(self) -> Tuple[str, ...]:
        return tuple(key for key, _ in self.weights)

    def score(self, values: Mapping[str, float]) -> float:
        self._require(values)
        product = 1.0
        for key, weight in self.weights:
            value = values[key]
            if value == 0.0 and weight < 0:
                raise ScoringError(
                    f"WeightedProduct cannot raise criterion {key!r} = 0 to the "
                    f"negative weight {weight}"
                )
            product *= value ** weight
        return product


@dataclass(frozen=True)
class MinScore(ScoringExpression):
    """``Z = min z_δ`` — a worst-case (egalitarian) combination."""

    keys: Tuple[str, ...]

    def __post_init__(self):
        if not self.keys:
            raise ScoringError("MinScore needs at least one criterion key")

    def variables(self) -> Tuple[str, ...]:
        return self.keys

    def score(self, values: Mapping[str, float]) -> float:
        self._require(values)
        return min(values[key] for key in self.keys)


@dataclass(frozen=True)
class HarmonicMean(ScoringExpression):
    """Harmonic mean of the selected criteria (F-measure-like)."""

    keys: Tuple[str, ...]

    def __post_init__(self):
        if not self.keys:
            raise ScoringError("HarmonicMean needs at least one criterion key")

    def variables(self) -> Tuple[str, ...]:
        return self.keys

    def score(self, values: Mapping[str, float]) -> float:
        self._require(values)
        selected = [values[key] for key in self.keys]
        if any(value == 0 for value in selected):
            return 0.0
        return len(selected) / sum(1.0 / value for value in selected)


@dataclass(frozen=True)
class CallableExpression(ScoringExpression):
    """Wrap an arbitrary ``f(values_dict) -> float`` as a scoring expression."""

    keys: Tuple[str, ...]
    function: Callable[[Mapping[str, float]], float]
    label: str = "custom"

    def variables(self) -> Tuple[str, ...]:
        return self.keys

    def score(self, values: Mapping[str, float]) -> float:
        self._require(values)
        return float(self.function(values))


def describe_expression(expression: ScoringExpression) -> str:
    """Short human-readable description used in explanation reports."""
    name = type(expression).__name__
    try:
        variables = ", ".join(expression.variables())
    except NotImplementedError:
        variables = "?"
    return f"{name}({variables})"


# ---------------------------------------------------------------------------
# Ready-made expressions
# ---------------------------------------------------------------------------

def example_3_8_expression(alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0) -> WeightedAverage:
    """The expression ``Z`` of Example 3.8 over ``Δ = {δ1, δ4, δ5}``.

    ``alpha`` weights δ1 (positive coverage), ``beta`` weights δ4
    (negative exclusion), ``gamma`` weights δ5 (query compactness).
    """
    return WeightedAverage.of({"delta1": alpha, "delta4": beta, "delta5": gamma})


def balanced_expression() -> WeightedAverage:
    """Equal-weight average of δ1 and δ4 (fidelity only, no size penalty)."""
    return WeightedAverage.of({"delta1": 1.0, "delta4": 1.0})


def fidelity_first_expression(size_weight: float = 0.2) -> WeightedAverage:
    """Mostly fidelity, with a small preference for compact queries."""
    return WeightedAverage.of({"delta1": 1.0, "delta4": 1.0, "delta5": size_weight})
