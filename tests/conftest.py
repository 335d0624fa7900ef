"""Shared fixtures: the paper's running example and small workloads."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core import BorderComputer, Labeling, MatchEvaluator, OntologyExplainer
from repro.ontologies.university import (
    build_example_3_3_database,
    build_university_database,
    build_university_labeling,
    build_university_mapping,
    build_university_ontology,
    build_university_schema,
    build_university_specification,
    build_university_system,
    example_queries,
)


@dataclass(frozen=True)
class ScoringPath:
    """One scoring path: bitset verdict rows or the per-pair oracle.

    ``apply`` sets the engine's verdict switch on a *fresh*
    specification (never apply it to the shared session fixtures) and
    returns it, so explainer tests can run the same assertions over
    both paths.
    """

    use_bitset: bool

    @property
    def label(self) -> str:
        return "bitset" if self.use_bitset else "oracle"

    def apply(self, specification):
        specification.engine.verdicts.enabled = self.use_bitset
        return specification


SCORING_PATHS = (ScoringPath(use_bitset=True), ScoringPath(use_bitset=False))


@pytest.fixture(params=SCORING_PATHS, ids=lambda path: path.label)
def scoring_path(request) -> ScoringPath:
    """Parametrizes explainer tests over {bitset, oracle}."""
    return request.param


@pytest.fixture(scope="session")
def university_system():
    """The OBDM system Σ of Example 3.6 (shared, read-only)."""
    return build_university_system()


@pytest.fixture(scope="session")
def university_labeling():
    """The labeling λ of Example 3.6."""
    return build_university_labeling()


@pytest.fixture(scope="session")
def university_queries():
    """The candidate queries q1, q2, q3 of Example 3.6."""
    return example_queries()


@pytest.fixture(scope="session")
def university_evaluator(university_system):
    """A radius-1 J-matching evaluator over the running example."""
    return MatchEvaluator(university_system, radius=1)


@pytest.fixture(scope="session")
def university_explainer(university_system):
    return OntologyExplainer(university_system)


@pytest.fixture(scope="session")
def example_3_3_database():
    """The abstract database of Example 3.3."""
    return build_example_3_3_database()


@pytest.fixture()
def fresh_university_database():
    """A modifiable copy of the university database."""
    return build_university_database()
