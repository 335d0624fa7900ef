"""PerfectRef soundness: the reduce step's unifier, and rewriting vs chase rows.

PerfectRef's reduce step unifies two body atoms and applies the unifier
once, so the unifier must be resolved: a triangular ``{x→y, y→z}`` from
``R(x, y)`` and ``R(y, z)`` applied once merges ``x`` with ``y`` but not
with ``z``, and the rewriting answers more than the certain answers.
The per-pair oracle runs the same PerfectRef as the kernel, so only the
other answering strategy (the chase) can see such a fault: on generated
pools over the four probe domains, every verdict row under ``rewriting``
must equal the row under ``chase``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateConfig, CandidateGenerator
from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.obdm.database import SourceDatabase
from repro.obdm.rewriting import PerfectRefRewriter
from repro.ontologies.loans import build_loan_schema, build_loan_specification
from repro.queries.atoms import Atom
from repro.queries.evaluation import FactIndex
from repro.queries.parser import parse_cq
from repro.queries.terms import Constant, Variable, is_variable
from repro.workloads.probes import PROBE_DOMAINS, build_probe_system, probe_labelings

pytestmark = pytest.mark.rewriting

TERMS = st.sampled_from(
    tuple(Variable(name) for name in ("x", "y", "z", "w")) + (Constant("a"), Constant("b"))
)


@st.composite
def atom_pairs(draw):
    arity = draw(st.integers(1, 4))
    return tuple(
        Atom("R", tuple(draw(TERMS) for _ in range(arity))) for _side in range(2)
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair=atom_pairs())
def test_one_application_of_the_unifier_makes_the_atoms_equal(pair):
    left, right = pair
    unifier = left.unify(right)
    if unifier is None:
        return
    assert left.apply(unifier) == right.apply(unifier)
    # Idempotent: no variable it binds occurs in an image.
    assert not {term for term in unifier.values() if is_variable(term)} & set(unifier)
    for atom in pair:
        assert atom.apply(unifier).apply(unifier) == atom.apply(unifier)


def test_chained_unifier_is_resolved():
    x, y, z = (Variable(name) for name in "xyz")
    unifier = Atom("R", (x, y)).unify(Atom("R", (y, z)))
    assert unifier == {x: z, y: z}


def _guarantees(*pairs) -> SourceDatabase:
    database = SourceDatabase(build_loan_schema(), name="guarantees")
    for guarantor, guaranteed in pairs:
        database.add("GUARANTEE", guarantor, guaranteed)
    return database


def test_reduce_step_keeps_the_rewriting_sound():
    """No loan axiom rewrites ``guaranteedBy``, so only the reduce step
    fires on this query; over one guarantee the chain has no answer."""
    specification = build_loan_specification()
    query = parse_cq("q(x) :- guaranteedBy(x, y), guaranteedBy(y, z)")
    rewriting = PerfectRefRewriter(specification.ontology).rewrite(query)
    lone = FactIndex({Atom.of("guaranteedBy", "a", "b")})
    assert rewriting.evaluate((), index=lone) == set()
    chain = FactIndex({Atom.of("guaranteedBy", "a", "b"), Atom.of("guaranteedBy", "b", "c")})
    assert rewriting.evaluate((), index=chain) == {(Constant("a"),)}
    for strategy in ("rewriting", "chase"):
        answering = specification.with_strategy(strategy)
        assert answering.certain_answers(query, _guarantees(("a", "b"))) == set(), strategy
        assert answering.certain_answers(query, _guarantees(("a", "b"), ("b", "c"))) == {
            (Constant("a"),)
        }, strategy


GENERATION = CandidateConfig(max_atoms=2, max_candidates=300)

# The loan labeling on which the served ranking went wrong: APP0006's
# border holds guaranteedBy(APP0006, APP0007) but no guaranteedBy(APP0007, ·).
SHARED_LOANS = Labeling(
    positives=["APP0000", "APP0006"], negatives=["APP0008", "APP0007"], name="shared"
)


def _rows(system, labeling, pool) -> list:
    evaluator = MatchEvaluator(system, 1)
    matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, labeling))
    matrix.build(pool)
    return [matrix.row(query) for query in pool]


@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_rewriting_rows_equal_chase_rows(domain):
    rewriting = build_probe_system(domain)
    chase = build_probe_system(domain, strategy="chase")
    labelings = probe_labelings(rewriting, count=2)
    if domain == "loans":
        labelings.append(SHARED_LOANS)
    checked = 0
    for labeling in labelings:
        pool = CandidateGenerator(rewriting, radius=1, config=GENERATION).generate(labeling)
        expected = _rows(chase, labeling, pool)
        for query, row, reference in zip(pool, _rows(rewriting, labeling, pool), expected):
            assert row == reference, f"{labeling.name}: {query}"
        checked += len(pool)
    assert checked > 100
