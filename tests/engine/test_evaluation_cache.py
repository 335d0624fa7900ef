"""Tests for the shared evaluation cache (repro.engine.cache).

The important property is *transparency*: caching must never change a
result, only skip recomputation.  The chase strategy is the acid test —
the seed re-saturated the ABox on every ``is_certain_answer`` call, so
these tests pin a warm engine against a fresh system per query, whose
cache is cold by construction, across all four domain ontologies.
"""

from __future__ import annotations

import pytest

from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.engine import EvaluationCache
from repro.obdm.system import OBDMSystem
from repro.ontologies.compas import build_compas_specification
from repro.ontologies.loans import build_loan_specification
from repro.ontologies.movies import build_movie_specification
from repro.ontologies.university import build_university_database, build_university_specification
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.workloads.compas_gen import CompasWorkloadConfig, generate_compas_workload
from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from repro.workloads.movies_gen import MovieWorkloadConfig, generate_movie_workload


# -- small deterministic databases per domain --------------------------------


def _university():
    specification = build_university_specification()
    return specification, build_university_database(specification.schema)


def _compas():
    specification = build_compas_specification()
    database = generate_compas_workload(CompasWorkloadConfig(persons=12, seed=11)).database
    return specification, database


def _loans():
    specification = build_loan_specification()
    database = generate_loan_workload(LoanWorkloadConfig(applicants=12, seed=7)).database
    return specification, database


def _movies():
    specification = build_movie_specification()
    database = generate_movie_workload(
        MovieWorkloadConfig(movies=8, directors=3, viewers=5, critics=2, seed=3)
    ).database
    return specification, database


DOMAIN_BUILDERS = {
    "university": _university,
    "compas": _compas,
    "loans": _loans,
    "movies": _movies,
}


def _chase_system(domain: str) -> OBDMSystem:
    specification, database = DOMAIN_BUILDERS[domain]()
    return OBDMSystem(specification.with_strategy("chase"), database, name=f"{domain}_chase")


def _domain_labeling(system: OBDMSystem) -> Labeling:
    constants = sorted(system.domain(), key=repr)[:5]
    return Labeling(positives=constants[:3], negatives=constants[3:5], name="probe")


def _domain_queries(system: OBDMSystem):
    ontology = system.ontology
    queries = [
        ConjunctiveQuery.of(("?x",), (Atom.of(concept, "?x"),), name=f"q_{concept}")
        for concept in sorted(ontology.concept_names)[:3]
    ]
    for role in sorted(ontology.role_names)[:2]:
        queries.append(
            ConjunctiveQuery.of(("?x",), (Atom.of(role, "?x", "?y"),), name=f"q_{role}")
        )
    assert queries, f"no probe queries for {system.name}"
    return queries


# -- chase-strategy correctness across the four domains ----------------------


@pytest.mark.parametrize("domain", sorted(DOMAIN_BUILDERS))
def test_chase_matching_identical_with_and_without_cache(domain):
    cached = _chase_system(domain)
    labeling = _domain_labeling(cached)
    cached_evaluator = MatchEvaluator(cached, radius=1)
    for query in _domain_queries(cached):
        cold = cached_evaluator.profile(query, labeling)
        warm = cached_evaluator.profile(query, labeling)
        fresh = _chase_system(domain)
        reference = MatchEvaluator(fresh, radius=1).profile(query, labeling)
        # The reference answered every (query, border) question cold.
        assert fresh.specification.engine.cache.stats.match_hits == 0
        assert cold == reference, f"{domain}: cached profile diverged for {query}"
        assert warm == reference, f"{domain}: warm-cache profile diverged for {query}"
    stats = cached.specification.engine.cache.stats
    assert stats.saturation_hits > 0, f"{domain}: the saturation memo never hit"
    assert stats.match_hits > 0, f"{domain}: the J-match memo never hit"


@pytest.mark.parametrize("domain", sorted(DOMAIN_BUILDERS))
def test_chase_certain_answers_identical_with_and_without_cache(domain):
    cached = _chase_system(domain)
    for query in _domain_queries(cached):
        cold = cached.certain_answers(query)
        warm = cached.certain_answers(query)
        reference = _chase_system(domain).certain_answers(query)
        assert cold == warm == reference, f"{domain}: certain answers diverged for {query}"


def test_chase_saturates_each_border_once(university_system, university_labeling, university_queries):
    chased = university_system.specification.with_strategy("chase")
    system = OBDMSystem(chased, university_system.database, name="uni_chase")
    evaluator = MatchEvaluator(system, radius=1)
    for query in university_queries.values():
        evaluator.profile(query, university_labeling)
    stats = chased.engine.cache.stats
    borders = len(university_labeling.positives) + len(university_labeling.negatives)
    assert stats.saturation_misses == borders
    assert stats.saturation_hits == borders * (len(university_queries) - 1)


def test_chase_depth_change_invalidates_saturation(university_system):
    """Reconfiguring chase_depth must not serve saturations from the old bound."""
    specification = university_system.specification.with_strategy("chase")
    engine = specification.engine
    abox = specification.retrieve_abox(university_system.database)
    first = engine.saturate(abox)
    assert engine.saturate(abox) is first
    engine.chase_depth += 1
    assert engine.saturate(abox) is not first


# -- unit tests of the memo object itself ------------------------------------


class TestEvaluationCacheUnit:
    @staticmethod
    def _make():
        saturations = []
        rewrites = []

        def saturator(facts):
            saturations.append(facts)
            return facts

        def rewriter(query):
            rewrites.append(query)
            return query

        cache = EvaluationCache(saturator=saturator, rewriter=rewriter)
        return cache, saturations, rewrites

    def test_saturation_computed_once(self):
        cache, saturations, _ = self._make()
        facts = frozenset({Atom.of("C", "a"), Atom.of("R", "a", "b")})
        first = cache.saturated_index(facts)
        second = cache.saturated_index(facts)
        assert first is second
        assert len(saturations) == 1

    def test_rewriting_keyed_by_signature_not_name(self):
        cache, _, rewrites = self._make()
        from repro.queries.parser import parse_cq

        q1 = parse_cq("q1(x) :- C(x)")
        q2 = parse_cq("other_name(y) :- C(y)")
        cache.rewriting(q1)
        cache.rewriting(q2)
        assert len(rewrites) == 1

    def test_match_memo_caches_false_verdicts(self):
        cache, _, _ = self._make()
        calls = []

        def compute():
            calls.append(1)
            return False

        assert cache.match(("k",), compute) is False
        assert cache.match(("k",), compute) is False
        assert len(calls) == 1

    def test_clear_drops_entries(self):
        cache, saturations, _ = self._make()
        facts = frozenset({Atom.of("C", "a")})
        cache.saturated_index(facts)
        cache.clear()
        cache.saturated_index(facts)
        assert len(saturations) == 2
