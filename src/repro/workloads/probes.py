"""Small deterministic probe workloads for the differential test suites.

One definition of the per-domain probe systems, labelings and candidate
pools that the oracle differential, kernel, verdict-store, retrieval,
delta, ranking and gateway suites validate (and that
``examples/gateway_serving.py`` serves), and of the (Δ, Z)
configurations the service and ranking suites re-rank under, so no two
suites can ever check drifting copies of the same workload.
:func:`build_join_system` is a system whose mapping is not local (join
and algebra sources), :func:`oracle_row` gives single Definition 3.4
verdict rows and :func:`build_delta_stream` deterministic database
deltas that touch a labeling's borders.

The package ``repro.workloads`` does not import this module: it pulls in
``repro.core``, while the workload generators stay below it.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.labeling import Labeling
from ..core.matching import MatchEvaluator
from ..core.scoring import (
    HarmonicMean,
    MinScore,
    WeightedAverage,
    balanced_expression,
    example_3_8_expression,
    fidelity_first_expression,
)
from ..obdm.database import DatabaseDelta, SourceDatabase
from ..obdm.mapping import Mapping, MappingAssertion
from ..obdm.schema import SourceSchema
from ..obdm.specification import OBDMSpecification
from ..obdm.system import OBDMSystem
from ..ontologies.compas import build_compas_specification
from ..ontologies.loans import build_loan_specification
from ..ontologies.movies import build_movie_specification
from ..ontologies.university import (
    build_university_database,
    build_university_ontology,
    build_university_specification,
)
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Constant
from ..queries.ucq import UnionOfConjunctiveQueries
from ..sql.algebra import Condition, CrossProduct, Project, Rename, Scan, Select, Union
from .compas_gen import CompasWorkloadConfig, generate_compas_workload
from .loans_gen import LoanWorkloadConfig, generate_loan_workload
from .movies_gen import MovieWorkloadConfig, generate_movie_workload

PROBE_SPECIFICATIONS = {
    "university": build_university_specification,
    "compas": build_compas_specification,
    "loans": build_loan_specification,
    "movies": build_movie_specification,
}

PROBE_DOMAINS = tuple(sorted(PROBE_SPECIFICATIONS))

# (Δ, Z) configurations a scoring deployment re-ranks one labeling
# under; the verdicts do not change between them.
CRITERIA_CONFIGS = {
    "example_3_8": (("delta1", "delta4", "delta5"), example_3_8_expression()),
    "example_3_8_a3": (("delta1", "delta4", "delta5"), example_3_8_expression(alpha=3)),
    "balanced": (("delta1", "delta4"), balanced_expression()),
    "fidelity_first": (("delta1", "delta4", "delta5"), fidelity_first_expression()),
    "all_deltas": (
        ("delta1", "delta2", "delta3", "delta4", "delta5", "delta6"),
        WeightedAverage.of(
            {f"delta{i}": weight for i, weight in zip(range(1, 7), (3, 1, 1, 3, 1, 1))}
        ),
    ),
    "worst_case": (("delta1", "delta4"), MinScore(("delta1", "delta4"))),
    "harmonic": (("delta1", "delta3"), HarmonicMean(("delta1", "delta3"))),
}


def _probe_database(domain: str):
    if domain == "university":
        return build_university_database()
    if domain == "compas":
        return generate_compas_workload(CompasWorkloadConfig(persons=12, seed=11)).database
    if domain == "loans":
        return generate_loan_workload(LoanWorkloadConfig(applicants=12, seed=7)).database
    if domain == "movies":
        return generate_movie_workload(
            MovieWorkloadConfig(movies=8, directors=3, viewers=5, critics=2, seed=3)
        ).database
    raise KeyError(f"unknown probe domain {domain!r}; available: {PROBE_DOMAINS}")


def build_probe_system(domain: str, strategy=None, verdicts: bool = True) -> OBDMSystem:
    """A small deterministic system for one domain, on a fresh specification.

    ``verdicts=False`` selects the per-pair Definition 3.4 oracle
    (``engine.verdicts.enabled = False``), the reference the default
    verdict-row path is compared against.
    """
    specification = PROBE_SPECIFICATIONS[domain]()
    if strategy is not None:
        specification = specification.with_strategy(strategy)
    specification.engine.verdicts.enabled = verdicts
    return OBDMSystem(specification, _probe_database(domain), name=f"{domain}_probe")


def build_join_system(backend=None, verdicts: bool = True) -> OBDMSystem:
    """The university ontology over a mapping no shipped domain has.

    Its sources are joins and every relational-algebra operator, so most
    retrieved facts have multi-fact witnesses (the mapping is not
    local).  *backend* is passed to the source database (``"sqlite"``
    for the SQLite store); ``verdicts=False`` selects the per-pair
    oracle as in :func:`build_probe_system`.
    """
    schema = SourceSchema(name="S_join")
    schema.declare("ENR", ("student", "subject", "university"))
    schema.declare("LOC", ("university", "city"))
    database = SourceDatabase(schema, name="D_join", backend=backend)
    rows = [
        ("ENR", "A10", "Math", "TV"),
        ("ENR", "B80", "Math", "Sap"),
        ("ENR", "C12", "Science", "Norm"),
        ("ENR", "D50", "Science", "TV"),
        ("ENR", "E25", "Math", "Pol"),
        ("ENR", "A10", "Art", "Sap"),
        ("LOC", "TV", "Rome"),
        ("LOC", "Sap", "Rome"),
        ("LOC", "Pol", "Milan"),
        ("LOC", "Norm", "Pisa"),
    ]
    for relation, *values in rows:
        database.add(relation, *values)
    mapping = Mapping(name="M_join")
    # A two-atom join CQ source.
    mapping.add_assertion("m(x, c) :- ENR(x, y, z), LOC(z, c)", "studiesIn(x, c)")
    # A self-join whose two atoms may map to one fact.
    mapping.add_assertion("m(x, w) :- ENR(x, y, z), ENR(w, y, z)", "classmate(x, w)")
    # SQL: CrossProduct + Select (attr = attr) + Project.
    mapping.add_assertion(
        "SELECT e.student, l.city FROM ENR AS e, LOC AS l WHERE e.university = l.university",
        "livesNear(x, c)",
    )
    # Select (attr = const) + Project.
    mapping.add(
        MappingAssertion.create(
            Project(Select(Scan("ENR", "e"), (Condition("e.subject", "Math"),)), ("e.student",)),
            "MathStudent(x)",
        )
    )
    # Union of two projections.
    mapping.add(
        MappingAssertion.create(
            Union(
                Project(Scan("ENR", "e"), ("e.university",)),
                Project(Scan("LOC", "l"), ("l.university",)),
            ),
            "Site(x)",
        )
    )
    # Rename over a projection, and a join through Rename.
    mapping.add(
        MappingAssertion.create(
            Rename(Project(Scan("LOC", "l"), ("l.city",)), ("city",)), "City(x)"
        )
    )
    mapping.add(
        MappingAssertion.create(
            Project(
                Select(
                    CrossProduct(
                        Rename(Scan("LOC", "a"), ("u1", "c1")),
                        Rename(Scan("LOC", "b"), ("u2", "c2")),
                    ),
                    (Condition("c1", "c2", True, True),),
                ),
                ("u1", "u2"),
            ),
            "sameCity(x, y)",
        )
    )
    specification = OBDMSpecification(
        build_university_ontology(), schema, mapping, name="J_join"
    )
    specification.engine.verdicts.enabled = verdicts
    return OBDMSystem(specification, database, name="join")


def oracle_row(evaluator: MatchEvaluator, columns, query) -> int:
    """The per-pair Definition 3.4 verdict row of *query* over *columns*.

    Bit ``i`` is ``matches_border(query, columns.borders[i])``: one
    certain-answer question per border, the reference the verdict-row
    engine is checked against bit for bit.
    """
    row = 0
    for bit, border in enumerate(columns.borders):
        if evaluator.matches_border(query, border):
            row |= 1 << bit
    return row


def probe_labeling(system: OBDMSystem) -> Labeling:
    constants = sorted(system.domain(), key=repr)[:6]
    return Labeling(positives=constants[:3], negatives=constants[3:6], name="probe")


def probe_labelings(system: OBDMSystem, count: int = 2) -> List[Labeling]:
    """*count* overlapping labelings (shifted six-constant windows).

    Window ``i`` starts at constant ``i``, so consecutive labelings
    share five of their six tuples — the shape that makes the
    multi-labeling batch kernel's shared-border merging observable.
    """
    constants = sorted(system.domain(), key=repr)
    labelings = []
    for index in range(count):
        window = constants[index : index + 6]
        if len(window) < 6:
            break
        labelings.append(
            Labeling(positives=window[:3], negatives=window[3:6], name=f"probe{index}")
        )
    return labelings


def probe_pool(system: OBDMSystem) -> List:
    """Concept/role CQs, a two-atom join and a UCQ, per domain.

    The join and the UCQ are built from the first concepts; an ontology
    with fewer than two concept names (university) gets a role chain
    ``first(x, y), last(y, z)`` over its sorted role names and the union
    of its two role CQs instead.
    """
    ontology = system.ontology
    concepts = sorted(ontology.concept_names)[:3]
    all_roles = sorted(ontology.role_names)
    roles = all_roles[:2]
    pool: List = [
        ConjunctiveQuery.of(("?x",), (Atom.of(concept, "?x"),), name=f"q_{concept}")
        for concept in concepts
    ]
    pool.extend(
        ConjunctiveQuery.of(("?x",), (Atom.of(role, "?x", "?y"),), name=f"q_{role}")
        for role in roles
    )
    if len(concepts) >= 2 and roles:
        pool.append(
            ConjunctiveQuery.of(
                ("?x",),
                (Atom.of(concepts[0], "?x"), Atom.of(roles[0], "?x", "?y")),
                name="q_conj",
            )
        )
        pool.append(UnionOfConjunctiveQueries.of((pool[0], pool[1]), name="q_union"))
    elif len(roles) == 2:
        role_queries = pool[len(concepts):]
        pool.append(
            ConjunctiveQuery.of(
                ("?x",),
                (Atom.of(all_roles[0], "?x", "?y"), Atom.of(all_roles[-1], "?y", "?z")),
                name="q_chain",
            )
        )
        pool.append(UnionOfConjunctiveQueries.of(tuple(role_queries), name="q_union"))
    return pool


def build_delta_stream(
    database: SourceDatabase,
    labeling: Labeling,
    steps: int,
    facts_per_step: int = 2,
) -> List[DatabaseDelta]:
    """A deterministic stream of deltas that actually touch the labeling.

    Step ``i`` targets labeled constant ``i mod |tuples|``: it removes
    up to *facts_per_step* of the facts currently mentioning that
    constant and inserts replacement facts under the same predicates
    with the last argument swapped for a fresh ``DRIFT{i}_{j}``
    constant — so every delta changes at least one border a warm session
    depends on.  Among the anchor's facts the *most local* ones are
    retired first (lowest total occurrence count of their non-anchor
    constants): a real streaming update touches a record and its
    immediate neighbourhood, not a categorical band constant shared by
    the entire database, and a delta mentioning such a hub constant
    would touch every border.  Deltas are validated against a scratch
    copy, so each one is applicable exactly at its position in the
    stream.
    """
    scratch = database.copy(name="delta_stream_scratch")
    targets = sorted(
        {constant for labeled in labeling.tuples() for constant in labeled},
        key=lambda constant: str(constant.value),
    )
    if not targets:
        raise ValueError("the labeling names no constants to drift around")

    def locality(fact: Atom) -> Tuple[int, str]:
        spread = sum(
            len(scratch.facts_with_constant(constant))
            for constant in fact.constants()
            if constant != anchor
        )
        return (spread, str(fact))

    stream: List[DatabaseDelta] = []
    for step in range(steps):
        anchor = targets[step % len(targets)]
        candidates = sorted(scratch.facts_with_constant(anchor), key=locality)
        removed = candidates[:facts_per_step]
        added: List[Atom] = []
        for j, fact in enumerate(removed):
            fresh = Constant(f"DRIFT{step}_{j}")
            swapped: Tuple = tuple(
                fresh if position == len(fact.args) - 1 else value
                for position, value in enumerate(fact.args)
            )
            added.append(Atom(fact.predicate, swapped))
        delta = DatabaseDelta.of(added, removed)
        scratch.apply_delta(delta)
        stream.append(delta)
    return stream
