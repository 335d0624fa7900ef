"""Connected-subset candidate enumeration against the full-scan reference.

``_BorderAbstraction.connected_subsets`` walks only the fact subsets
connected to the answer constants (ESU extension from a virtual answer
root) and must return exactly the subsets the full scan keeps — every
``itertools.combinations`` subset of the sorted border facts that passes
the admissibility check below — in the scan's order (ascending size,
then ascending indices).  That scan lives here only, as the reference.
The suite compares the two on every radius-1 border of the probe
domains, on loan borders with hundreds of facts, and on generated small
borders; compares whole generated pools (cutoff accounting included)
with a reference generator; and pins the enumeration's work by counts.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateConfig, CandidateGenerator, _BorderAbstraction
from repro.core.labeling import Labeling
from repro.experiments.kernel_exp import PROBE_DOMAINS, build_probe_system, probe_labeling
from repro.obdm.chase import NULL_PREFIX
from repro.ontologies.loans import build_loan_system
from repro.queries.atoms import Atom
from repro.queries.terms import Constant, Variable, is_constant
from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload

pytestmark = pytest.mark.candidates

CASES = [(domain, None) for domain in PROBE_DOMAINS] + [("university", "chase")]
CASE_IDS = [f"{d}-{s or 'rewriting'}" for d, s in CASES]


# -- the reference: the full subset scan ------------------------------------------


def is_admissible(subset, answers) -> bool:
    """Subsets must cover every answer constant and be connected to them."""
    covered = set()
    for fact in subset:
        covered |= {argument for argument in fact.args if argument in answers}
    if covered != answers:
        return False
    # Every atom must be reachable from an answer constant through
    # shared constants within the subset.
    remaining = list(subset)
    frontier_constants = set(answers)
    changed = True
    while changed:
        changed = False
        for fact in list(remaining):
            if any(argument in frontier_constants for argument in fact.args):
                remaining.remove(fact)
                frontier_constants |= set(fact.args)
                changed = True
    return not remaining


def reference_subsets(abstraction: _BorderAbstraction, max_atoms: int):
    """Every admissible subset of the sorted facts, in scan order."""
    facts = abstraction.facts
    answers = set(abstraction.key)
    return [
        indices
        for size in range(1, max_atoms + 1)
        for indices in itertools.combinations(range(len(facts)), size)
        if is_admissible([facts[index] for index in indices], answers)
    ]


def abstraction_of(generator: CandidateGenerator, value) -> _BorderAbstraction:
    border = generator.borders.border((value,), generator.radius)
    return _BorderAbstraction(border.tuple, (Variable("x0"),), generator._ontology_facts(border))


def loan_system(applicants: int, seed: int = 7):
    config = LoanWorkloadConfig(applicants=applicants, seed=seed)
    return build_loan_system(generate_loan_workload(config).database)


def applicants(system):
    return sorted(fact.args[0].value for fact in system.database.facts_with_predicate("APPLICANT"))


# -- subsets equal the scan ---------------------------------------------------------


@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
def test_every_probe_border_matches_the_scan(domain, strategy):
    system = build_probe_system(domain, strategy=strategy)
    generator = CandidateGenerator(system, radius=1)
    # The full scan is C(n, 3) per border: size 3 on the small domain,
    # size 2 on all (the loan borders below cover size 3 at scale).
    max_atoms = 3 if domain == "university" else 2
    compared = 0
    for constant in sorted(system.domain(), key=repr):
        abstraction = abstraction_of(generator, constant)
        expected = reference_subsets(abstraction, max_atoms)
        assert abstraction.connected_subsets(max_atoms) == expected, constant
        compared += len(expected)
    assert compared > 0


@pytest.mark.parametrize("applicant_count", [16, 24])
def test_loan_borders_match_the_scan_at_three_atoms(applicant_count):
    system = loan_system(applicant_count, seed=3)
    generator = CandidateGenerator(system, radius=1)
    sizes = {value: len(generator.borders.border((value,), 1)) for value in applicants(system)}
    # The applicant of smallest border, and the median one on the
    # smaller database (the full scan of a 24-applicant median border
    # alone walks 1.5M subsets).
    chosen = [min(sizes, key=lambda value: (sizes[value], value))]
    if applicant_count == 16:
        chosen.append(sorted(sizes, key=lambda value: (sizes[value], value))[len(sizes) // 2])
    for value in chosen:
        abstraction = abstraction_of(generator, value)
        assert len(abstraction.facts) >= 90
        expected = reference_subsets(abstraction, 3)
        assert expected
        assert abstraction.connected_subsets(3) == expected, value


ANSWERS = ["a0", "a1"]
OTHERS = ["c0", "c1", "c2", f"{NULL_PREFIX}0", f"{NULL_PREFIX}1"]
fact_strategy = st.builds(
    lambda predicate, args: Atom.of(predicate, *args),
    st.sampled_from(["p", "q", "r"]),
    st.lists(st.sampled_from(ANSWERS + OTHERS), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    facts=st.frozensets(fact_strategy, max_size=9),
    key_size=st.integers(min_value=1, max_value=2),
    max_atoms=st.integers(min_value=1, max_value=4),
)
# Multi-column key covered only by a two-fact subset.
@example(facts=frozenset({Atom.of("p", "a0", "c0"), Atom.of("q", "c0", "a1")}), key_size=2, max_atoms=2)
# Facts linked only through an answer constant, plus a disconnected island.
@example(
    facts=frozenset({Atom.of("p", "a0"), Atom.of("q", "a0", "c1"), Atom.of("r", "c2", "c0")}),
    key_size=1,
    max_atoms=3,
)
# A chain through labelled nulls, one fact beyond the size bound.
@example(
    facts=frozenset(
        {
            Atom.of("p", "a0", f"{NULL_PREFIX}0"),
            Atom.of("q", f"{NULL_PREFIX}0", f"{NULL_PREFIX}1"),
            Atom.of("r", f"{NULL_PREFIX}1", "c0"),
            Atom.of("p", "c0", "c1"),
        }
    ),
    key_size=1,
    max_atoms=3,
)
def test_generated_borders_match_the_scan(facts, key_size, max_atoms):
    key = tuple(Constant(value) for value in ANSWERS[:key_size])
    answer_variables = tuple(Variable(f"x{i}") for i in range(key_size))
    abstraction = _BorderAbstraction(key, answer_variables, facts)
    assert abstraction.connected_subsets(max_atoms) == reference_subsets(abstraction, max_atoms)
    visited = [frozenset(subset) for subset, _covered in abstraction._rooted_subsets(max_atoms)]
    assert len(visited) == len(set(visited)), "a connected subset was visited twice"


# -- pools equal a reference generator ----------------------------------------------


def reference_pool(domain, strategy, labeling, config, monkeypatch):
    """The pool the full scan yields, with the candidate table off."""
    system = build_probe_system(domain, cache=False, strategy=strategy)
    with monkeypatch.context() as patch:
        patch.setattr(
            _BorderAbstraction,
            "connected_subsets",
            lambda self, max_atoms: reference_subsets(self, max_atoms),
        )
        return CandidateGenerator(system, radius=1, config=config).generate(labeling)


@pytest.mark.parametrize("domain,strategy", CASES, ids=CASE_IDS)
@pytest.mark.parametrize(
    "config",
    [
        CandidateConfig(max_atoms=2),
        CandidateConfig(max_atoms=2, max_candidates=150),
        CandidateConfig(max_atoms=2, max_kept_constants=0, include_most_specific=True),
    ],
    ids=["complete", "cutoff", "constant-free"],
)
def test_generated_pool_equals_the_reference_generator(domain, strategy, config, monkeypatch):
    system = build_probe_system(domain, strategy=strategy)
    labeling = probe_labeling(system)
    expected = reference_pool(domain, strategy, labeling, config, monkeypatch)
    generator = CandidateGenerator(system, radius=1, config=config)
    for request in ("cold", "tabled"):
        pool = generator.generate(labeling)
        assert [str(query) for query in pool] == [str(query) for query in expected], request
        assert (pool.generated, pool.truncated, pool.unexplored_seeds) == (
            expected.generated,
            expected.truncated,
            expected.unexplored_seeds,
        ), request
    if config.max_candidates == 150 and domain != "university":
        assert not expected.exhausted, "the cutoff case never cut"


# -- max_kept_constants ----------------------------------------------------------------


def test_zero_kept_constants_yields_constant_free_candidates(university_system):
    def pool(kept):
        config = CandidateConfig(max_atoms=2, max_kept_constants=kept)
        return CandidateGenerator(university_system, radius=1, config=config).candidates_for("A10")

    def keeps_a_constant(query):
        return any(is_constant(argument) for atom in query.body for argument in atom.args)

    constant_free = pool(0)
    assert constant_free and not any(keeps_a_constant(query) for query in constant_free)
    singletons = pool(1)
    assert len(singletons) > len(constant_free)
    assert any(keeps_a_constant(query) for query in singletons)
    # A cap of 0 drops exactly the variants that keep a constant.
    assert [str(q) for q in singletons if not keeps_a_constant(q)] == [str(q) for q in constant_free]


# -- work counts -----------------------------------------------------------------------


def test_median_loan_seed_visits_only_its_connected_subsets():
    """48 applicants, default config: hundreds of subsets, not C(n, 3)."""
    system = loan_system(48, seed=1)
    generator = CandidateGenerator(system, radius=1)
    sizes = {value: len(generator.borders.border((value,), 1)) for value in applicants(system)}
    median = sorted(sizes, key=lambda value: (sizes[value], value))[len(sizes) // 2]
    abstraction = abstraction_of(generator, median)
    max_atoms = CandidateConfig().max_atoms
    visited = [frozenset(subset) for subset, _ in abstraction._rooted_subsets(max_atoms)]
    assert comb(len(abstraction.facts), max_atoms) > 9_000_000  # what a full scan walks
    assert len(visited) == len(set(visited))
    # A one-constant key: every connected subset covers the answers.
    assert len(visited) == len(abstraction.connected_subsets(max_atoms))
    assert 100 <= len(visited) <= 1000


@pytest.mark.parametrize("applicant_count,per_side", [(48, 12), (200, 16)])
def test_default_pool_over_loan_applicants_is_bounded_work(applicant_count, per_side, monkeypatch):
    """The default ``explain(labeling)`` pool: few seeds, each a few hundred subsets."""
    system = loan_system(applicant_count)
    ids = applicants(system)
    labeling = Labeling(ids[:per_side], ids[per_side : 2 * per_side], name="loans")
    visits = []
    visit = _BorderAbstraction._rooted_subsets

    def counted(self, max_atoms):
        count = 0
        for item in visit(self, max_atoms):
            count += 1
            yield item
        visits.append((len(self.facts), count))

    monkeypatch.setattr(_BorderAbstraction, "_rooted_subsets", counted)
    pool = CandidateGenerator(system, radius=1).generate(labeling)
    stats = system.specification.engine.cache.stats
    assert len(pool) == CandidateConfig().max_candidates
    assert stats.candidate_misses == len(visits) == per_side - pool.unexplored_seeds
    for facts, visited in visits:
        assert facts >= 250 and visited <= 2 * facts, (facts, visited)
