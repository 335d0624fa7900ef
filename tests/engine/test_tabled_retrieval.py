"""Tabled single-pass border retrieval against the per-border reference.

``MatchEvaluator.border_aboxes`` cuts every border's retrieved ABox out
of the specification's ``DerivationTable`` (one witnessed mapping pass
over the facts no earlier batch covered), and
``MatchEvaluator.border_provenance`` maps every retrieved fact of a batch
to the bitset of the borders whose ABox holds it (the match kernel's
index).  The contract is that each ABox equals the seed's per-border
retrieval — the mapping applied to ``restrict_to(border.atoms)`` — fact
for fact, and that the provenance map is those ABoxes OR-merged.  That
reference lives here only.  The suite covers every labeled border of the
four probe domains (plus university under the chase) on memory and
SQLite parent databases, mapping sources no shipped domain has (joins,
every algebra operator), random sub-databases, table growth and
re-keying across batches and deltas, concurrent batches, error parity
and the work counters.  Provenance maps are keyed by encoded
facts and compared through one decoding helper (:func:`decoded`); the
cache's constant interner is pinned under 8 racing threads (kernel rows
against the oracle, ids handed out once) and through ``clear()``.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.border import Border, BorderComputer
from repro.core.labeling import Labeling
from repro.core.matching import MatchEvaluator
from repro.engine.cache import ConstantInterner, DerivationTable
from repro.engine.kernel import PoolMatchKernel
from repro.engine.verdicts import BorderColumns
from repro.errors import MappingError, SchemaError, UnknownRelationError
from repro.obdm.backend import SQLiteBackend
from repro.obdm.database import DatabaseDelta, SourceDatabase
from repro.obdm.mapping import Mapping, MappingAssertion
from repro.obdm.specification import OBDMSpecification
from repro.obdm.system import OBDMSystem
from repro.ontologies.loans import build_loan_system
from repro.ontologies.university import build_university_ontology
from repro.queries.atoms import Atom
from repro.queries.parser import parse_cq
from repro.queries.terms import Constant, is_variable
from repro.service import ExplanationService
from repro.sql.algebra import (
    AlgebraNode,
    Condition,
    CrossProduct,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload
from repro.workloads.probes import (
    PROBE_DOMAINS,
    build_delta_stream,
    build_join_system,
    build_probe_system,
    oracle_row,
    probe_labelings,
    probe_pool,
)

pytestmark = pytest.mark.retrieval

CASES = [(domain, None) for domain in PROBE_DOMAINS] + [("university", "chase")]


def reference_facts(system: OBDMSystem, atoms) -> frozenset:
    """The per-border reference: restrict, then apply the whole mapping."""
    sub_database = system.database.restrict_to(atoms)
    return system.specification.retrieve_abox(sub_database).facts


def reference_provenance(system: OBDMSystem, borders) -> dict:
    """The per-border reference ABoxes OR-merged: fact → mask of its borders."""
    masks = {}
    for bit, border in enumerate(borders):
        for fact in reference_facts(system, border.atoms):
            masks[fact] = masks.get(fact, 0) | 1 << bit
    return masks


def decoded(provenance: dict, interner) -> dict:
    """An encoded provenance map (``border_provenance``,
    ``DerivationTable.provenance``) with its facts decoded to atoms."""
    return {interner.decode(fact): mask for fact, mask in provenance.items()}


def provenance_of(evaluator: MatchEvaluator, borders) -> dict:
    """``evaluator.border_provenance(borders)``, decoded."""
    interner = evaluator.system.specification.engine.cache.interner
    return decoded(evaluator.border_provenance(borders), interner)


def all_borders(system: OBDMSystem, radii=(0, 1, 2)):
    computer = BorderComputer(system.database)
    constants = sorted(system.domain(), key=repr)
    return [computer.border((constant,), radius) for radius in radii for constant in constants]


def labeled_borders(system: OBDMSystem):
    computer = BorderComputer(system.database)
    return [
        computer.border(value, 1)
        for labeling in probe_labelings(system, count=3)
        for value in sorted(labeling.tuples(), key=repr)
    ]


def on_backend(system: OBDMSystem, backend: str) -> OBDMSystem:
    if backend == "memory":
        return system
    twin = system.database.with_backend(SQLiteBackend(), name=f"{system.database.name}_sqlite")
    return OBDMSystem(system.specification, twin, name=f"{system.name}_sqlite")


def assert_matches_reference(system: OBDMSystem, borders, aboxes) -> None:
    assert len(aboxes) == len(borders)
    for border, abox in zip(borders, aboxes):
        assert abox.facts == reference_facts(system, border.atoms), border


# -- differential: shipped domains ------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "domain,strategy", CASES, ids=[f"{d}-{s or 'rewriting'}" for d, s in CASES]
)
def test_probe_domain_borders_equal_reference(domain, strategy, backend):
    system = on_backend(build_probe_system(domain, strategy=strategy), backend)
    evaluator = MatchEvaluator(system, 1)
    labeled = labeled_borders(system)
    assert_matches_reference(system, labeled, evaluator.border_aboxes(labeled))
    # Every border of every constant at radii 0-2, as one batch that
    # extends the table past the labeled borders.
    borders = all_borders(system)
    aboxes = evaluator.border_aboxes(borders)
    assert_matches_reference(system, borders, aboxes)
    if strategy == "chase":
        engine = system.specification.engine
        for border, abox in zip(borders, aboxes):
            reference = system.specification.retrieve_abox(
                system.database.restrict_to(border.atoms)
            )
            assert engine.saturate(abox).facts == engine.saturate(reference).facts


@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_batches_of_one_equal_reference(domain):
    system = build_probe_system(domain)
    evaluator = MatchEvaluator(system, 1)
    for border in all_borders(system, radii=(1,)):
        [abox] = evaluator.border_aboxes([border])
        assert abox.facts == reference_facts(system, border.atoms)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_probe_domain_provenance_equals_reference(domain, backend):
    system = on_backend(build_probe_system(domain), backend)
    evaluator = MatchEvaluator(system, 1)
    labeled = labeled_borders(system)
    assert provenance_of(evaluator, labeled) == reference_provenance(system, labeled)
    for radius in (0, 1, 2):
        borders = all_borders(system, radii=(radius,))
        assert provenance_of(evaluator, borders) == reference_provenance(system, borders)


# -- differential: sources no shipped domain has ------------------------------------------


def test_join_mapping_is_not_local():
    mapping = build_join_system().specification.mapping
    assert not mapping.is_local()
    assert [assertion.is_local() for assertion in mapping] == [
        False, False, False, True, True, True, False,
    ]


@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_join_and_algebra_sources_equal_reference(backend):
    system = build_join_system(backend)
    evaluator = MatchEvaluator(system, 1)
    borders = all_borders(system, radii=(0, 1))
    assert_matches_reference(system, borders, evaluator.border_aboxes(borders))


@pytest.mark.parametrize("backend", [None, "sqlite"])
def test_join_and_algebra_provenance_equals_reference(backend):
    system = build_join_system(backend)
    evaluator = MatchEvaluator(system, 1)
    for radius in (0, 1, 2):
        borders = all_borders(system, radii=(radius,))
        provenance = provenance_of(evaluator, borders)
        assert provenance == reference_provenance(system, borders)
    assert any(mask & (mask - 1) for mask in provenance.values())  # facts shared by borders


def test_provenance_of_random_sub_databases_equals_reference():
    """Every subset size; witnesses that straddle a subset's edge."""
    system = build_join_system()
    evaluator = MatchEvaluator(system, 1)
    facts = sorted(system.database.facts)
    rng = random.Random(11)
    everything = []
    for size in range(1, len(facts) + 1):
        batch = [
            Border((f"s{size}_{index}",), 0, (frozenset(rng.sample(facts, size)),))
            for index in range(3)
        ]
        everything.extend(batch)
        assert provenance_of(evaluator, batch) == reference_provenance(system, batch)
    assert provenance_of(evaluator, everything) == reference_provenance(system, everything)


@pytest.mark.parametrize("domain", ["loans", "join"])
def test_provenance_after_a_delta_equals_reference(domain):
    if domain == "loans":
        system = _loan_system()
        values = _applicants(system)[:8]
        [delta] = build_delta_stream(
            system.database, Labeling(values[:4], values[4:], name="d"), steps=1
        )
    else:
        system = build_join_system()
        values = sorted(constant.value for constant in system.domain())
        delta = DatabaseDelta.of(
            [Atom.of("ENR", "E25", "Art", "Norm")], [Atom.of("LOC", "TV", "Rome")]
        )
    before = [BorderComputer(system.database).border((value,), 1) for value in values]
    evaluator = MatchEvaluator(system, 1)
    assert provenance_of(evaluator, before) == reference_provenance(system, before)
    system.database.apply_delta(delta)
    after = [BorderComputer(system.database).border((value,), 1) for value in values]
    assert {border.atoms for border in after} != {border.atoms for border in before}
    fresh = MatchEvaluator(system, 1)
    assert provenance_of(fresh, after) == reference_provenance(system, after)


def test_arbitrary_fact_subsets_equal_reference():
    """Joins across covered and fresh facts, over random sub-databases."""
    system = build_join_system()
    evaluator = MatchEvaluator(system, 1)
    facts = sorted(system.database.facts)
    rng = random.Random(5)
    for size in (1, 2, 3, 4, 6, 8, len(facts)):
        batch = []
        for index in range(3):
            subset = frozenset(rng.sample(facts, size))
            batch.append(Border((f"s{size}_{index}",), 0, (subset,)))
        assert_matches_reference(system, batch, evaluator.border_aboxes(batch))


# -- table growth, re-keying and counters -------------------------------------------------


def _loan_system(applicants: int = 24) -> OBDMSystem:
    return build_loan_system(
        generate_loan_workload(LoanWorkloadConfig(applicants=applicants, seed=3)).database
    )


def _applicants(system: OBDMSystem):
    return sorted(fact.args[0].value for fact in system.database.facts_with_predicate("APPLICANT"))


def test_batches_extend_the_table_and_deltas_rekey_it():
    system = _loan_system()
    cache = system.specification.engine.cache
    evaluator = MatchEvaluator(system, 1)
    ids = _applicants(system)
    first = [evaluator.border_of(value) for value in ids[:4]]
    second = [evaluator.border_of(value) for value in ids[2:8]]

    before = cache.stats.as_dict()
    assert_matches_reference(system, first, evaluator.border_aboxes(first))
    covered = frozenset().union(*(border.atoms for border in first))
    assert cache.stats.delta_since(before)["mapping_passes"] == 1
    assert cache.stats.delta_since(before)["mapping_facts_read"] == len(covered)

    before = cache.stats.as_dict()
    assert_matches_reference(system, second, evaluator.border_aboxes(second))
    union = covered.union(*(border.atoms for border in second))
    spent = cache.stats.delta_since(before)
    assert spent["mapping_passes"] == 1
    assert spent["mapping_facts_read"] == len(union - covered)
    assert cache.size_report()["derivation_sources"] == len(union)

    # A delta changes the fingerprint: the next batch starts a new table.
    [delta] = build_delta_stream(
        system.database, Labeling(ids[:2], ids[2:4], name="d"), steps=1
    )
    system.database.apply_delta(delta)
    fresh = MatchEvaluator(system, 1)
    after = [fresh.border_of(value) for value in ids[:4]]
    retrieved = {border.atoms for border in first + second}
    changed = [border for border in after if border.atoms not in retrieved]
    assert changed, "the delta changed none of the borders"
    before = cache.stats.as_dict()
    assert_matches_reference(system, after, fresh.border_aboxes(after))
    spent = cache.stats.delta_since(before)
    # Unchanged borders hit the ABox cache; the changed ones are read in
    # full, none of their facts counting as covered by the old table.
    assert spent["mapping_passes"] == 1
    assert spent["mapping_facts_read"] == len(frozenset().union(*(b.atoms for b in changed)))
    assert cache._derivations.fingerprint == system.database.fingerprint()


def test_cold_explain_runs_one_pass_over_the_border_union():
    system = _loan_system()
    ids = _applicants(system)
    pool = probe_pool(system)
    labeling = Labeling(ids[:6], ids[6:12], name="cold")
    service = ExplanationService(system, radius=1)
    service.explain(labeling, candidates=pool)
    borders = [service.evaluator().border_of(value) for value in ids[:12]]
    union = frozenset().union(*(border.atoms for border in borders))
    stats = service.cache_stats
    # The kernel index comes from the derivation table's provenance map:
    # one mapping pass, and no border ABox is looked up.
    assert stats.border_abox_hits == stats.border_abox_misses == 0
    assert stats.mapping_passes == 1
    assert stats.mapping_facts_read == len(union)
    assert stats.mapping_facts_read < sum(len(border) for border in borders)
    report = service.size_report()
    assert report["derivation_sources"] == len(union)
    assert report["derivations"] > 0


def test_drift_onto_covered_borders_runs_no_pass():
    system = _loan_system()
    ids = _applicants(system)
    pool = probe_pool(system)
    labeling = Labeling(ids[:6], ids[6:12], name="drift")
    service = ExplanationService(system, radius=1)
    evaluator = service.evaluator()
    service.explain(labeling, candidates=pool)
    covered = system.specification.engine.cache._derivations.covered
    newcomer = next(
        value for value in ids[12:] if evaluator.border_of(value).atoms <= covered
    )
    drifted = Labeling(ids[:6] + [newcomer], ids[6:12], name="drift")
    before = service.cache_stats.as_dict()
    report = service.explain(drifted, candidates=pool)
    spent = service.cache_stats.delta_since(before)
    assert service.stats.drift_updates == 1
    # The kernel reads the newcomer's column off the derivation table: no
    # border ABox is retrieved, and the covered border costs no mapping pass.
    assert spent["border_abox_misses"] == 0
    assert spent["mapping_passes"] == 0
    reference = ExplanationService(
        build_loan_system(system.database.copy()), radius=1
    ).explain(drifted, candidates=pool)
    assert report.render() == reference.render()


def test_delta_makes_the_next_batch_read_again():
    system = _loan_system()
    ids = _applicants(system)
    pool = probe_pool(system)
    labeling = Labeling(ids[:4], ids[4:8], name="delta")
    service = ExplanationService(system, radius=1)
    service.explain(labeling, candidates=pool)
    [delta] = build_delta_stream(system.database, labeling, steps=1)
    before = service.cache_stats.as_dict()
    accounting = service.apply_delta(delta)
    report = service.explain(labeling, candidates=pool)
    spent = service.cache_stats.delta_since(before)
    assert accounting["sessions_updated"] == 1
    assert spent["mapping_passes"] >= 1
    assert spent["mapping_facts_read"] > 0
    reference = ExplanationService(
        build_loan_system(system.database.copy()), radius=1
    ).explain(labeling, candidates=pool)
    assert report.render() == reference.render()


# -- concurrency and pickling ----------------------------------------------------------------


def test_concurrent_overlapping_batches_get_the_serial_result():
    """8 threads, one cache: a fact must never look covered before its
    derivations are tabled.  Half the threads ask for a whole window,
    half for sub-windows of it, so a sub-window request racing a whole-
    window extension would read an incomplete table.  Every thread reads
    both the ABoxes and the provenance map; which one races the
    extension alternates by round."""
    database = _loan_system(40).database
    ids = _applicants(_loan_system(40))
    computer = BorderComputer(database)
    window = [computer.border((value,), 1) for value in ids[:16]]
    batches = [window if i % 2 == 0 else window[i : i + 6] for i in range(8)]
    reference = _loan_system(40)
    expected = [
        ([reference_facts(reference, border.atoms) for border in batch],
         reference_provenance(reference, batch))
        for batch in batches
    ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(4):
            system = build_loan_system(database)  # a fresh cache per round
            results = [None] * len(batches)
            errors = []
            barrier = threading.Barrier(len(batches))

            def request(position):
                try:
                    evaluator = MatchEvaluator(system, 1, computer)
                    batch = batches[position]
                    barrier.wait(30)
                    if round_ % 2:
                        provenance = provenance_of(evaluator, batch)
                        aboxes = evaluator.border_aboxes(batch)
                    else:
                        aboxes = evaluator.border_aboxes(batch)
                        provenance = provenance_of(evaluator, batch)
                    results[position] = ([abox.facts for abox in aboxes], provenance)
                except BaseException as error:  # surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=request, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert not errors, errors
            assert results == expected
    finally:
        sys.setswitchinterval(interval)


def _kernel_pool(system: OBDMSystem, tags=("absent",)):
    """The probe pool plus constant-binding CQs, two per tag over
    constants no fact carries."""
    texts = [
        "q(x) :- residesIn(x, 'Rome')",
        "q(x) :- Applicant(x), residesIn(x, 'Milan')",
        "q(x) :- appliesFor(x, y), hasPurpose(y, 'home')",
    ]
    for tag in tags:
        texts.append(f"q(x) :- residesIn(x, 'Atlantis-{tag}')")
        texts.append(f"q(x) :- appliesFor(x, y), hasPurpose(y, 'moon-{tag}')")
    return probe_pool(system) + [parse_cq(text) for text in texts]


def _oracle_rows(oracle: OBDMSystem, labeling: Labeling, pool) -> list:
    checker = MatchEvaluator(oracle, 1)
    columns = BorderColumns.from_labeling(checker, labeling)
    return [oracle_row(checker, columns, query) for query in pool]


def _kernel_rows(system: OBDMSystem, labeling: Labeling, pool, computer=None) -> list:
    evaluator = MatchEvaluator(system, 1, computer)
    kernel = PoolMatchKernel(evaluator, BorderColumns.from_labeling(evaluator, labeling))
    return [kernel.row(query) for query in pool]


def _assert_ids_distinct(interner) -> None:
    """Every interned constant has its own id, and ids are dense."""
    ids = interner._ids
    assert sorted(ids.values()) == list(range(len(interner)))
    for constant, ident in ids.items():
        assert interner._constants[ident] == constant


def test_concurrent_kernel_rows_share_one_interner():
    """8 threads, one cache, each computing kernel rows over its own
    window of applicants while the others intern constants: every id
    is handed out once, and every row equals the per-pair oracle's."""
    database = _loan_system(40).database
    ids = _applicants(_loan_system(40))
    computer = BorderComputer(database)
    labelings = [Labeling(ids[i : i + 3], ids[i + 3 : i + 6], name=f"w{i}") for i in range(8)]
    # Overlapping tags: threads intern the same fresh constants at once.
    pools = [_kernel_pool(_loan_system(40), range(i, i + 12)) for i in range(8)]
    oracle = _loan_system(40)
    oracle.specification.engine.verdicts.enabled = False
    expected = [_oracle_rows(oracle, labeling, pool) for labeling, pool in zip(labelings, pools)]
    assert all(any(rows) for rows in expected)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(2):
            system = build_loan_system(database)  # a fresh cache per round
            results = [None] * len(labelings)
            errors = []
            barrier = threading.Barrier(len(labelings))

            def request(position):
                try:
                    barrier.wait(30)
                    results[position] = _kernel_rows(
                        system, labelings[position], pools[position], computer
                    )
                except BaseException as error:  # surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=request, args=(i,)) for i in range(len(labelings))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert not errors, errors
            assert results == expected
            _assert_ids_distinct(system.specification.engine.cache.interner)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_interning_hands_out_each_id_once():
    """Inserts are atomic: 8 threads interning the same fresh constants
    in different orders agree on every id, and ids stay dense."""
    values = [f"c{index}" for index in range(3000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            interner = ConstantInterner()
            seen = [None] * 8
            barrier = threading.Barrier(len(seen))

            def intern(position):
                constants = [Constant(value) for value in values]
                random.Random(f"{round_}:{position}").shuffle(constants)
                barrier.wait(30)
                seen[position] = {constant: interner.id(constant) for constant in constants}

            threads = [threading.Thread(target=intern, args=(i,)) for i in range(len(seen))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert len(interner) == len(values)
            _assert_ids_distinct(interner)
            assert all(ids == seen[0] for ids in seen)
    finally:
        sys.setswitchinterval(interval)


def test_clear_drops_the_interner_with_the_subquery_tables():
    system = _loan_system()
    oracle = _loan_system()
    oracle.specification.engine.verdicts.enabled = False
    ids = _applicants(system)
    labeling = Labeling(ids[:3], ids[3:6], name="cleared")
    pool = _kernel_pool(system)
    cache = system.specification.engine.cache
    expected = _oracle_rows(oracle, labeling, pool)
    assert _kernel_rows(system, labeling, pool) == expected
    interner = cache.interner
    assert len(interner) > 0 and cache.size_report()["subquery_indexes"] > 0
    cache.clear()
    report = cache.size_report()
    assert report["interned_constants"] == report["subquery_indexes"] == 0
    assert report["subquery_states"] == report["derivations"] == 0
    assert cache.interner is not interner
    assert _kernel_rows(system, labeling, pool) == expected
    _assert_ids_distinct(cache.interner)


def test_a_batch_never_reads_facts_another_batch_is_still_deriving():
    """The race deterministically: a reader whose facts an in-flight
    extension covers must wait for that extension's derivations."""
    system = _loan_system()
    specification, database = system.specification, system.database
    computer = BorderComputer(database)
    window = [computer.border((value,), 1) for value in _applicants(system)[:8]]
    union = frozenset().union(*(border.atoms for border in window))
    table = DerivationTable(database.fingerprint())
    deriving, release = threading.Event(), threading.Event()

    compiled = specification.mapping.compiled()

    def slow_derive(fresh, scope, interner):
        derived = list(compiled.derivations(fresh, scope, interner, database.schema))
        deriving.set()
        release.wait(10)
        yield from derived

    def no_derive(fresh, scope, interner):
        raise AssertionError("the reader's facts are covered by the in-flight extension")

    seen = []

    def read():
        table.cover(window[0].atoms, no_derive, local=True)
        seen.extend(table.border_facts([window[0].atoms]))
        seen.append(decoded(table.provenance([window[0].atoms]), table.interner))

    extender = threading.Thread(target=table.cover, args=(union, slow_derive, True))
    extender.start()
    assert deriving.wait(10)
    reader = threading.Thread(target=read)
    reader.start()
    reader.join(0.2)  # a correct reader is still waiting for the extension
    release.set()
    extender.join(30)
    reader.join(30)
    assert not extender.is_alive() and not reader.is_alive()
    assert seen == [
        reference_facts(system, window[0].atoms), reference_provenance(system, window[:1])
    ]


def test_snapshots_and_clear_exclude_the_table(tmp_path):
    system = build_probe_system("compas")
    cache = system.specification.engine.cache
    MatchEvaluator(system, 1).border_aboxes(labeled_borders(system))
    assert "derivations" not in cache.snapshot_state()
    cache.save(tmp_path / "snapshot.pkl")
    assert cache._derivations is not None
    assert "subquery_indexes=" in str(cache) and "derivations=" in str(cache)
    cache.clear()
    assert cache._derivations is None
    assert cache.size_report()["derivation_sources"] == 0


# -- error parity with catalog evaluation ---------------------------------------------------


def _catalog_facts(assertion: MappingAssertion, database: SourceDatabase):
    """Reference application of an algebra source through a catalog copy."""
    rows = assertion.source.evaluate(database.to_catalog()).rows
    variables = []
    for target in assertion.targets:
        for argument in target.args:
            if is_variable(argument) and argument not in variables:
                variables.append(argument)
    facts = set()
    for row in rows:
        if len(row) < len(variables):
            raise MappingError(
                f"source query returned {len(row)} columns but targets need "
                f"{len(variables)} variables"
            )
        binding = {variable: Constant(value) for variable, value in zip(variables, row)}
        facts.update(target.apply(binding) for target in assertion.targets)
    return facts


ERROR_CASES = {
    "unknown-attribute": (Project(Scan("ENR", "e"), ("e.nope",)), "P(x)", SchemaError),
    "ambiguous-attribute": (
        Select(CrossProduct(Scan("LOC", "a"), Scan("LOC", "b")), (Condition("city", "Rome"),)),
        "P(x)",
        SchemaError,
    ),
    "duplicate-product-attributes": (CrossProduct(Scan("LOC"), Scan("LOC")), "P(x)", SchemaError),
    "union-arity": (Union(Scan("ENR", "e"), Scan("LOC", "l")), "P(x)", SchemaError),
    "rename-arity": (Rename(Scan("LOC", "l"), ("only",)), "P(x)", SchemaError),
    "duplicate-projection": (Project(Scan("LOC", "l"), ("l.city", "l.city")), "P(x)", SchemaError),
    "unknown-relation": (Scan("NOPE", "n"), "P(x)", UnknownRelationError),
    "short-rows": (Project(Scan("LOC", "l"), ("l.city",)), "near(x, y)", MappingError),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_match_catalog_evaluation(case):
    source, target, error = ERROR_CASES[case]
    assertion = MappingAssertion.create(source, target)
    join = build_join_system()
    database = join.database
    with pytest.raises(error) as expected:
        _catalog_facts(assertion, database)
    with pytest.raises(error) as applied:
        assertion.apply(database)
    assert str(applied.value) == str(expected.value)
    # The tabled border path raises the same error.
    mapping = Mapping([assertion], name="M_error")
    specification = OBDMSpecification(
        build_university_ontology(), join.specification.schema, mapping
    )
    system = OBDMSystem(specification, database)
    border = BorderComputer(database).border(("TV",), 1)
    with pytest.raises(error) as tabled:
        MatchEvaluator(system, 1).border_aboxes([border])
    assert str(tabled.value) == str(expected.value)


def test_valid_algebra_sources_match_catalog_evaluation():
    join = build_join_system()
    database = join.database
    for assertion in join.specification.mapping:
        if isinstance(assertion.source, AlgebraNode):
            assert assertion.apply(database) == _catalog_facts(assertion, database)
