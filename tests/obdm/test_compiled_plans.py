"""Compiled mapping plans against the generic witnessed pass.

Border retrieval runs every one-atom CQ assertion as an ``AtomPlan``, a
positional filter-and-project on interned argument ids
(``CompiledMapping.derivations``), and the rest through
``MappingAssertion.iter_witnessed`` over a by-predicate view of the
pass's facts.  The contract is that the derivations, decoded, are
exactly ``iter_witnessed``'s ``(fact, witness)`` pairs over the same
facts: on hypothesis-generated assertions (type-tagged constant filters,
repeated variables, constants in targets, arity mismatches), on every
assertion of the shipped mappings and of the join fixture, on memory and
SQLite.  It also pins that ``Mapping.add`` reaches the next pass and
that a cold loan ``explain`` builds no restricted database, no fact
index and runs no homomorphism search.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obdm.mapping as mapping_module
import repro.queries.evaluation as evaluation_module
from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.engine.cache import ConstantInterner
from repro.obdm.backend import SQLiteBackend
from repro.obdm.database import SourceDatabase
from repro.obdm.mapping import AtomPlan, CompiledMapping, MappingAssertion
from repro.obdm.schema import SourceSchema
from repro.ontologies.loans import build_loan_system
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import FactIndex
from repro.queries.terms import Constant, Variable
from repro.service import ExplanationService
from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from repro.workloads.probes import PROBE_DOMAINS, build_join_system, build_probe_system

pytestmark = pytest.mark.retrieval

# Values whose constants differ only by type tag: Constant(True) and
# Constant(1) are distinct, Constant(1) and Constant(1.0) are one.
VALUES = (True, 1, 1.0, "1", False, 0, "c")
VARIABLES = tuple(Variable(name) for name in ("x", "y", "z"))
ARITIES = {"R": 3, "S": 2}


def plan_derivations(compiled: CompiledMapping, database: SourceDatabase) -> set:
    """``compiled``'s derivations over every fact of *database*, decoded."""
    interner = ConstantInterner()
    facts = database.facts
    return {
        (interner.decode(encoded), others | {source})
        for source, entries in compiled.derivations(facts, facts, interner, database.schema)
        for encoded, others in entries
    }


def witnessed(assertions, database: SourceDatabase) -> set:
    return {pair for assertion in assertions for pair in assertion.iter_witnessed(database)}


def on_backend(database: SourceDatabase, backend: str) -> SourceDatabase:
    if backend == "memory":
        return database
    return database.with_backend(SQLiteBackend(), name=f"{database.name}_sqlite")


# -- differential: generated one-atom assertions ---------------------------------------


def one_atom(source: Atom, *targets: Atom) -> MappingAssertion:
    """``source ⇝ targets`` with the source's variables as the head."""
    head = tuple(dict.fromkeys(arg for arg in source.args if isinstance(arg, Variable)))
    return MappingAssertion(ConjunctiveQuery.of(head, (source,)), targets)


CONSTANTS = st.sampled_from(VALUES).map(Constant)


@st.composite
def one_atom_assertions(draw):
    predicate = draw(st.sampled_from(sorted(ARITIES)))
    # An arity other than the relation's gives a source no fact matches.
    arity = draw(st.integers(1, 4))
    source = Atom(
        predicate,
        tuple(draw(st.one_of(st.sampled_from(VARIABLES), CONSTANTS)) for _ in range(arity)),
    )
    variables = sorted(source.variables(), key=str)
    terms = st.one_of(st.sampled_from(variables), CONSTANTS) if variables else CONSTANTS
    targets = [
        Atom(f"T{index}", tuple(draw(terms) for _ in range(draw(st.integers(1, 2)))))
        for index in range(draw(st.integers(1, 2)))
    ]
    return one_atom(source, *targets)


def generated_database(rows, backend: str) -> SourceDatabase:
    schema = SourceSchema(name="S_gen")
    schema.declare("R", ("a", "b", "c"))
    schema.declare("S", ("a", "b"))
    database = SourceDatabase(schema, name="D_gen")
    for predicate, values in rows:
        database.add(predicate, *values[: ARITIES[predicate]])
    return on_backend(database, backend)


FACT_ROWS = st.lists(
    st.tuples(st.sampled_from(sorted(ARITIES)), st.tuples(*[st.sampled_from(VALUES)] * 3)),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(assertions=st.lists(one_atom_assertions(), min_size=1, max_size=4), rows=FACT_ROWS)
def test_generated_plans_equal_iter_witnessed(backend, assertions, rows):
    database = generated_database(rows, backend)
    compiled = CompiledMapping(assertions)
    assert not compiled.generic
    assert plan_derivations(compiled, database) == witnessed(assertions, database)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_plans_keep_type_tags_repeated_variables_and_arity(backend):
    """The generated cases' corners, each pinned by name."""
    database = generated_database(
        [("R", (True, True, "c")), ("R", (1, 1.0, "c")), ("R", (1, "1", "c")),
         ("R", (0, False, "c")), ("S", (1, 1, None))],
        backend,
    )
    x, y, z = VARIABLES
    c = Constant
    cases = {
        # A repeated variable: True = True and 1 = 1.0, but 1 ≠ "1", 0 ≠ False.
        "repeated": (
            one_atom(Atom("R", (x, x, c("c"))), Atom("same", (x,))),
            {Atom.of("same", True), Atom.of("same", 1)},
        ),
        "filter-1": (
            one_atom(Atom("R", (c(1), y, z)), Atom("one", (y,))),
            {Atom.of("one", 1), Atom.of("one", "1")},
        ),
        "filter-1.0": (
            one_atom(Atom("R", (c(1.0), y, z)), Atom("one", (y,))),
            {Atom.of("one", 1), Atom.of("one", "1")},
        ),
        "filter-True": (
            one_atom(Atom("R", (c(True), y, z)), Atom("yes", (y,))),
            {Atom.of("yes", True)},
        ),
        "filter-'1'": (one_atom(Atom("R", (x, c("1"), z)), Atom("str", (x,))), {Atom.of("str", 1)}),
        "no-fact": (one_atom(Atom("R", (c(True), c(False), z)), Atom("never", (z,))), set()),
        "arity": (one_atom(Atom("R", (x, y)), Atom("pair", (x, y))), set()),
        "target-constant": (
            one_atom(Atom("S", (x, y)), Atom("tagged", (y, c("k"))), Atom("flag", (c(True),))),
            {Atom.of("tagged", 1, "k"), Atom.of("flag", True)},
        ),
    }
    for name, (assertion, expected) in cases.items():
        derived = plan_derivations(CompiledMapping([assertion]), database)
        assert {fact for fact, _witness in derived} == expected, name
        assert derived == witnessed([assertion], database), name


# -- differential: shipped mappings and the join fixture ---------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("domain", PROBE_DOMAINS + ("join",))
def test_shipped_assertions_equal_iter_witnessed(domain, backend):
    system = build_join_system() if domain == "join" else build_probe_system(domain)
    database = on_backend(system.database, backend)
    mapping = system.specification.mapping
    for assertion in mapping:
        compiled = CompiledMapping([assertion])
        assert bool(compiled.plans) == (AtomPlan.compile(assertion) is not None)
        derived = plan_derivations(compiled, database)
        assert derived == witnessed([assertion], database), str(assertion)
    assert plan_derivations(mapping.compiled(), database) == witnessed(mapping, database)


def test_shipped_one_atom_sources_are_plans():
    """Every shipped one-atom CQ assertion runs as a plan; only the loan
    SQL projection stays on the generic pass."""
    for domain in PROBE_DOMAINS:
        compiled = build_probe_system(domain).specification.mapping.compiled()
        generic = [assertion.label for assertion in compiled.generic]
        assert generic == (["residence_sql"] if domain == "loans" else []), domain


# -- mutability ------------------------------------------------------------------------------


def test_mapping_add_reaches_the_next_pass():
    system = build_probe_system("university")
    mapping = system.specification.mapping
    evaluator = MatchEvaluator(system, 0)
    first = evaluator.border_of("A10")
    [before] = evaluator.border_aboxes([first])
    compiled = mapping.compiled()
    assert mapping.compiled() is compiled
    mapping.add_assertion("ENR(x, y, z)", "enrolledAt(x, z)")
    assert mapping.compiled() is not compiled
    assert Atom.of("enrolledAt", "A10", "TV") not in before.facts
    border = evaluator.border_of("C12")
    assert not border.atoms & first.atoms
    [after] = evaluator.border_aboxes([border])
    assert Atom.of("enrolledAt", "C12", "Norm") in after.facts
    reference = system.specification.retrieve_abox(system.database.restrict_to(border.atoms))
    assert after.facts == reference.facts


# -- work pins -----------------------------------------------------------------------------


def test_cold_loan_explain_builds_no_database_index_or_homomorphism(monkeypatch):
    system = build_loan_system(
        generate_loan_workload(LoanWorkloadConfig(applicants=24, seed=3)).database
    )
    ids = sorted(fact.args[0].value for fact in system.database.facts_with_predicate("APPLICANT"))
    labeling = Labeling(ids[:6], ids[6:12], name="cold")
    pool = [
        ConjunctiveQuery.of(("?x",), (Atom.of("Applicant", "?x"),)),
        ConjunctiveQuery.of(("?x",), (Atom.of("appliesFor", "?x", "?y"), Atom.of("CarLoan", "?y"))),
        ConjunctiveQuery.of(("?x",), (Atom.of("residesIn", "?x", "?y"),)),
    ]
    calls = {"restrict_to": 0, "FactIndex": 0, "iter_matches": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SourceDatabase, "restrict_to", counting("restrict_to", SourceDatabase.restrict_to))
    monkeypatch.setattr(FactIndex, "__init__", counting("FactIndex", FactIndex.__init__))
    for module in (mapping_module, evaluation_module):
        monkeypatch.setattr(module, "iter_matches", counting("iter_matches", module.iter_matches))
    service = ExplanationService(system, radius=1)
    service.explain(labeling, candidates=pool)
    assert calls == {"restrict_to": 0, "FactIndex": 0, "iter_matches": 0}
    monkeypatch.undo()

    borders = [service.evaluator().border_of(value) for value in ids[:12]]
    union = frozenset().union(*(border.atoms for border in borders))
    stats = service.cache_stats
    assert stats.mapping_passes == 1
    assert stats.mapping_facts_read == len(union)
    # One derivation per distinct (fact, witness) of the generic pass.
    reference = witnessed(system.specification.mapping, system.database.restrict_to(union))
    assert service.size_report()["derivations"] == len(reference)
