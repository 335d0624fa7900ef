"""Differential suite for fact-level database drift (deltas).

Pins six contracts of the delta path:

* **delta algebra** — :class:`~repro.obdm.database.DatabaseDelta`
  validation, deduplication, inversion, and the database's
  order-independent content fingerprint (apply + inverse restores it;
  a rejected delta leaves the database untouched);
* **exact reach** — :meth:`~repro.core.border.BorderComputer.apply_delta`
  touches exactly the cached borders whose recomputed layers differ
  (four domains, memory and SQLite, radii 0–2, the probe delta stream
  and seeded random deltas through hub constants), and reads no
  border's constant set;
* **in-place index patching** —
  :meth:`~repro.engine.kernel.UnifiedBorderIndex.apply_patch` yields an
  index observationally identical to one rebuilt from scratch over the
  new entries (supports, candidate masks, full mask), compared through
  the encoded lookup on a shared interner, with tombstoned rows inert;
* **incremental = cold** — a resident
  :class:`~repro.service.ExplanationService` absorbing a seeded random
  add/remove delta stream serves rankings byte-identical to a cold
  service rebuilt over the post-delta database, and to a cold per-pair
  oracle system, across all four domain ontologies;
* **locality** — an unrelated delta (fresh constants only) leaves
  every session warm, and an empty delta is a no-op;
* **work counts** — a delta re-evaluates the changed columns of all
  live sessions of one radius in one batch-kernel dispatch that
  enumerates each distinct known query once, an unrelated delta
  dispatches nothing, and a labeling drift dispatches only when it
  brings fresh tuples (exact ``CacheStats`` increments, no wall clock).
"""

from __future__ import annotations

import importlib
import os
import random
import sys
from collections import Counter

import pytest

from repro.core.border import BorderComputer
from repro.core.explainer import OntologyExplainer
from repro.core.labeling import POSITIVE, Labeling
from repro.core.matching import MatchEvaluator
from repro.engine.cache import ConstantInterner
from repro.engine.kernel import UnifiedBorderIndex
from repro.engine.verdicts import BorderColumns, VerdictMatrix
from repro.errors import SchemaError
from repro.obdm.backend import SQLiteBackend
from repro.obdm.database import DatabaseDelta, SourceDatabase
from repro.obdm.system import OBDMSystem
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant
from repro.service import ExplanationService
from repro.workloads.probes import (
    PROBE_DOMAINS,
    PROBE_SPECIFICATIONS,
    build_delta_stream,
    build_probe_system,
    probe_labeling,
    probe_labelings,
    probe_pool,
)

pytestmark = pytest.mark.delta

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

DOMAINS = PROBE_DOMAINS


def _fact(predicate: str, *values) -> Atom:
    return Atom(predicate, tuple(Constant(value) for value in values))


def _some_fact(database: SourceDatabase) -> Atom:
    return sorted(database.facts, key=str)[0]


# -- delta algebra + fingerprint ---------------------------------------------


class TestDatabaseDelta:
    def test_of_dedupes_and_sorts(self):
        a, b = _fact("R", "x", "y"), _fact("R", "x", "z")
        delta = DatabaseDelta.of([b, a, b], [])
        assert delta.added == tuple(sorted((a, b), key=str))
        assert delta.removed == ()
        assert len(delta) == 2 and not delta.is_empty()

    def test_add_remove_conflict_rejected(self):
        fact = _fact("R", "x", "y")
        with pytest.raises(SchemaError):
            DatabaseDelta.of([fact], [fact])

    def test_non_ground_atom_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseDelta.of([Atom.of("R", "?x", "y")], [])

    def test_inverse_swaps_sides(self):
        delta = DatabaseDelta.of([_fact("R", "a", "b")], [_fact("S", "c")])
        inverse = delta.inverse()
        assert inverse.added == delta.removed
        assert inverse.removed == delta.added
        assert inverse.inverse() == delta

    def test_constants_and_predicates(self):
        delta = DatabaseDelta.of([_fact("R", "a", "b")], [_fact("S", "c")])
        assert delta.predicates() == frozenset({"R", "S"})
        assert delta.constants() == frozenset(
            {Constant("a"), Constant("b"), Constant("c")}
        )

    def test_apply_and_inverse_restore_fingerprint(self):
        system = build_probe_system("university")
        database = system.database
        before_facts = set(database.facts)
        before = database.fingerprint()
        removed = _some_fact(database)
        added = _fact(removed.predicate, *(["GHOST"] * len(removed.args)))
        delta = DatabaseDelta.of([added], [removed])
        database.apply_delta(delta)
        assert database.fingerprint() != before
        assert added in database.facts and removed not in database.facts
        database.apply_delta(delta.inverse())
        assert database.fingerprint() == before
        assert set(database.facts) == before_facts

    def test_fingerprint_is_order_independent(self):
        system = build_probe_system("university")
        database = system.database
        facts = sorted(database.facts, key=str)[:4]
        forward = database.copy()
        backward = database.copy()
        forward.apply_delta(DatabaseDelta.of([], facts))
        for fact in facts:
            forward.add_fact(fact)
        for fact in reversed(facts):
            backward.remove_fact(fact)
        for fact in reversed(facts):
            backward.add_fact(fact)
        assert forward.fingerprint() == backward.fingerprint() == database.fingerprint()

    def test_invalid_delta_leaves_database_untouched(self):
        system = build_probe_system("university")
        database = system.database
        before = database.fingerprint()
        phantom = _fact(_some_fact(database).predicate, "NO", "SUCH", "FACT")
        ghost = _fact(_some_fact(database).predicate, "A", "B", "C")
        with pytest.raises(SchemaError):
            database.apply_delta(DatabaseDelta.of([ghost], [phantom]))
        assert database.fingerprint() == before
        assert ghost not in database.facts


# -- exact border reach -----------------------------------------------------------

RADII = (0, 1, 2)


def _reach_deltas(database: SourceDatabase, seed: int, steps: int = 6) -> list:
    """Seeded random add/remove deltas, each applicable at its position.

    Each step removes up to two random facts and adds up to three facts
    copied from random facts with one argument swapped for a hub
    constant (one of the three most frequent), another database constant
    or a fresh one; now and then it re-adds a fact already present.
    """
    rng = random.Random(seed)
    scratch = database.copy(name="reach_scratch")
    frequency = Counter(
        constant for fact in scratch.iter_facts() for constant in fact.constants()
    )
    ranked = sorted(frequency, key=lambda constant: (-frequency[constant], repr(constant)))
    hubs, known = ranked[:3], sorted(frequency, key=repr)
    deltas = []
    for step in range(steps):
        facts = sorted(scratch.iter_facts(), key=str)
        removed = rng.sample(facts, rng.randint(0, 2))
        added = set()
        for j in range(rng.randint(1, 3)):
            template = rng.choice(facts)
            position = rng.randrange(len(template.args))
            pick = rng.random()
            if pick < 0.4:
                value = rng.choice(hubs)
            elif pick < 0.8:
                value = rng.choice(known)
            else:
                value = Constant(f"REACH{seed}_{step}_{j}")
            args = list(template.args)
            args[position] = value
            added.add(Atom(template.predicate, tuple(args)))
        if rng.random() < 0.3:
            added.add(rng.choice(facts))  # a no-op re-add, unless removed
        delta = DatabaseDelta.of(added - set(removed), removed)
        scratch.apply_delta(delta)
        deltas.append(delta)
    return deltas


def _reach_cases(database: SourceDatabase, labeling: Labeling, seed: int):
    """Two streams: ``build_delta_stream`` and :func:`_reach_deltas`."""
    return [
        build_delta_stream(database, labeling, steps=3),
        _reach_deltas(database, seed),
    ]


def _check_reach(database: SourceDatabase, radius: int, stream) -> Counter:
    """Apply *stream*, comparing each delta's touched set with the borders
    whose recomputed layers differ; the border of every domain constant,
    and of a few pairs of them, is cached."""
    computer = BorderComputer(database)
    tally = Counter()
    for delta in stream:
        constants = sorted(database.domain(), key=repr)
        for constant in constants:
            computer.border((constant,), radius)
        for pair in zip(constants[:8:2], constants[1:8:2]):
            computer.border(pair, radius)
        cached = [border for _key, border in computer._cache.items()]
        database.apply_delta(delta)
        touched = computer.apply_delta(delta)
        fresh = BorderComputer(database)
        changed = {
            border
            for border in cached
            if fresh.border(border.tuple, radius).layers != border.layers
        }
        tally["missed"] += len(changed - touched)
        tally["false_positives"] += len(touched - changed)
        tally["changed"] += len(changed)
        tally["kept"] += len(cached) - len(changed)
        assert all(computer.border(border.tuple, radius) == border for border in cached
                   if border not in changed)
    return tally


class TestExactReach:
    """A delta touches exactly the cached borders whose layers it changes."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_touched_borders_are_the_changed_ones(self, domain, backend):
        base = build_probe_system(domain)
        labeling = probe_labeling(base)
        tally = Counter()
        for radius in RADII:
            for stream in _reach_cases(base.database, labeling, seed=radius):
                database = base.database.copy(name="reach")
                if backend == "sqlite":
                    database = database.with_backend(SQLiteBackend(), name="reach_sqlite")
                tally += _check_reach(database, radius, stream)
        assert (tally["missed"], tally["false_positives"]) == (0, 0), dict(tally)
        # Not vacuous: borders changed and borders survived.
        assert tally["changed"] and tally["kept"], dict(tally)

    def test_each_clause_is_needed(self):
        """An added fact meeting only the last layer, or one already
        present, leaves a border alone; a fact removed from it touches it."""
        database = build_probe_system("university").database.copy(name="clauses")
        computer = BorderComputer(database)
        narrow = computer.border(("A10",), 0)
        computer.border(("A10",), 1)
        inside = sorted(narrow.atoms, key=str)[0]
        outer = sorted(
            {constant for atom in narrow.atoms for constant in atom.constants()}
            - set(narrow.tuple),
            key=repr,
        )[0]
        # Meets W_0 through a non-tuple constant: radius 1 takes it in,
        # radius 0 leaves it out.
        joining = _fact(inside.predicate, *["NOBODY"] * (len(inside.args) - 1), outer.value)
        for delta, radii in (
            (DatabaseDelta.of([joining], []), (1,)),
            (DatabaseDelta.of([inside], []), ()),
            (DatabaseDelta.of([], [inside]), (0, 1)),
        ):
            expected = {computer.border(("A10",), radius) for radius in radii}
            database.apply_delta(delta)
            assert computer.apply_delta(delta) == expected, str(delta)

    def test_reach_reads_no_constant_set_of_a_border(self, monkeypatch):
        database = build_probe_system("university").database
        computer = BorderComputer(database)
        students = sorted({fact.args[0].value for fact in database.facts_with_predicate("STUD")})
        borders = [computer.border((value,), 1) for value in students]
        enrolment = sorted(database.facts_with_predicate("ENR"), key=str)[0]
        added = _fact("ENR", "NEWCOMER", *(argument.value for argument in enrolment.args[1:]))
        asked = []
        constants = Atom.constants

        def counted(atom):
            asked.append(atom)
            return constants(atom)

        monkeypatch.setattr(Atom, "constants", counted)
        touched = computer.apply_delta(DatabaseDelta.of([added], []))
        assert touched, "the delta should touch a border"
        border_atoms = frozenset().union(*(border.atoms for border in borders))
        assert not [atom for atom in asked if atom in border_atoms]


# -- in-place index patching --------------------------------------------------


def _entries(database: SourceDatabase, chunks: int):
    """Split the database's facts into *chunks* synthetic border columns."""
    facts = sorted(database.facts, key=str)
    size = max(1, len(facts) // chunks)
    return [
        (bit, frozenset(facts[bit * size : (bit + 1) * size])) for bit in range(chunks)
    ]


def _encoded(entries, interner: ConstantInterner):
    """The entries as the index stores them, encoded through *interner*."""
    return [(bit, frozenset(map(interner.encode, facts))) for bit, facts in entries]


def _assert_same_index(
    patched: UnifiedBorderIndex, rebuilt: UnifiedBorderIndex, atoms, interner: ConstantInterner
):
    assert patched.full_mask == rebuilt.full_mask
    for atom in atoms:
        encoded = interner.encode(atom)
        found = patched.rows(encoded)
        assert found, str(atom)  # the lookup is not vacuous
        patched_rows = {(args, mask) for args, mask in found if mask}
        rebuilt_rows = {(args, mask) for args, mask in rebuilt.rows(encoded) if mask}
        assert patched_rows == rebuilt_rows, str(atom)


class TestApplyPatch:
    def test_patched_index_matches_rebuild(self):
        database = build_probe_system("university").database
        interner = ConstantInterner()
        entries = _entries(database, 4)
        index = UnifiedBorderIndex(_encoded(entries, interner))
        probe_atoms = [fact for _bit, facts in entries for fact in sorted(facts, key=str)[:3]]
        removed = sorted(entries[1][1], key=str)[0]
        replacement = _fact(removed.predicate, *(["PATCHED"] * len(removed.args)))
        new_facts = frozenset(entries[1][1] - {removed} | {replacement})
        touched = index.apply_patch(_encoded([(1, new_facts)], interner))
        assert removed.predicate in touched
        rebuilt = UnifiedBorderIndex(
            _encoded(
                [(bit, new_facts if bit == 1 else facts) for bit, facts in entries], interner
            )
        )
        _assert_same_index(index, rebuilt, probe_atoms + [replacement], interner)

    def test_emptied_column_is_tombstoned(self):
        database = build_probe_system("university").database
        interner = ConstantInterner()
        entries = _entries(database, 3)
        index = UnifiedBorderIndex(_encoded(entries, interner))
        index.apply_patch([(2, frozenset())])
        for _bit, facts in entries:
            for fact in facts:
                found = index.rows(interner.encode(fact))
                assert found, str(fact)  # the lookup is not vacuous
                assert all(mask & (1 << 2) == 0 for _args, mask in found)
        # full_mask keeps the bit: it records covered columns, not
        # non-empty ones.
        assert index.full_mask & (1 << 2)

    def test_empty_patch_is_noop(self):
        database = build_probe_system("university").database
        index = UnifiedBorderIndex(_encoded(_entries(database, 2), ConstantInterner()))
        before = index.full_mask
        assert index.apply_patch([]) == frozenset()
        assert index.full_mask == before


# -- incremental vs cold over random delta streams ----------------------------


def _random_delta_stream(
    database: SourceDatabase,
    labeling: Labeling,
    steps: int,
    rng: random.Random,
    facts_per_step: int = 2,
) -> list:
    """Seeded random add/remove stream anchored at labeled constants.

    Each step removes up to *facts_per_step* random facts mentioning a
    random labeled constant and inserts same-predicate replacements
    with one fresh constant, validated against a scratch copy so every
    delta is applicable at its position.
    """
    scratch = database.copy(name="stream_scratch")
    anchors = sorted(
        {constant for labeled in labeling.tuples() for constant in labeled},
        key=lambda constant: str(constant.value),
    )
    stream = []
    for step in range(steps):
        anchor = rng.choice(anchors)
        candidates = sorted(scratch.facts_with_constant(anchor), key=str)
        if not candidates:
            continue
        removed = rng.sample(candidates, min(facts_per_step, len(candidates)))
        added = []
        for j, fact in enumerate(removed):
            fresh = Constant(f"DRIFT{step}_{j}")
            swapped = tuple(
                fresh if position == len(fact.args) - 1 else value
                for position, value in enumerate(fact.args)
            )
            added.append(Atom(fact.predicate, swapped))
        delta = DatabaseDelta.of(added, removed)
        scratch.apply_delta(delta)
        stream.append(delta)
    return stream


def _drift_service(domain: str, database: SourceDatabase):
    system = OBDMSystem(PROBE_SPECIFICATIONS[domain](), database, name=f"{domain}_drift")
    return ExplanationService(system, radius=1)


def _cold_render(domain: str, database: SourceDatabase, labeling, pool, verdicts=True):
    specification = PROBE_SPECIFICATIONS[domain]()
    specification.engine.verdicts.enabled = verdicts
    system = OBDMSystem(specification, database, name=f"{domain}_cold")
    report = OntologyExplainer(system).explain_batch(
        [labeling], radius=1, candidates=pool, top_k=None
    )[0]
    return report.render(top_k=None)


def _assert_stream_identical(domain: str, steps: int = 3, seed: int = 23, verdicts=True):
    base = build_probe_system(domain)
    labeling = probe_labeling(base)
    pool = probe_pool(base)
    stream = _random_delta_stream(base.database, labeling, steps, random.Random(seed))
    assert stream, "the random stream generated no applicable delta"

    service = _drift_service(domain, base.database.copy())
    service.explain(labeling, candidates=pool, top_k=None)  # warm the session
    reference = base.database.copy()
    for delta in stream:
        service.apply_delta(delta)
        warm = service.explain(labeling, candidates=pool, top_k=None).render(top_k=None)
        reference.apply_delta(delta)
        cold = _cold_render(domain, reference.copy(), labeling, pool, verdicts)
        assert warm == cold, f"{domain}: incremental ranking diverged after {delta}"
    assert service.stats.database_deltas == len(stream)
    assert service.system.database.fingerprint() == reference.fingerprint()


def _dispatch_counts(stats, before) -> tuple:
    spent = stats.delta_since(before)
    return spent["batch_dispatches"], spent["batch_rows"]


@pytest.mark.service
class TestIncrementalMatchesCold:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_cold_reference(self, domain):
        _assert_stream_identical(domain)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_oracle_reference(self, domain):
        """A cold per-pair oracle system is the reference, not a cold bitset one."""
        _assert_stream_identical(domain, steps=2, verdicts=False)


@pytest.mark.service
class TestToggleAndLocality:
    def test_unrelated_delta_leaves_sessions_warm(self):
        base = build_probe_system("university")
        labeling = probe_labeling(base)
        pool = probe_pool(base)
        service = _drift_service("university", base.database.copy())
        service.explain(labeling, candidates=pool, top_k=None)
        (session,) = [session for _key, session in service._sessions.items()]
        matrix = session.matrix
        template = _some_fact(service.system.database)
        ghost = _fact(template.predicate, *[f"GHOST{i}" for i in range(len(template.args))])
        counters = service.cache_stats.as_dict()
        accounting = service.apply_delta(DatabaseDelta.of([ghost], []))
        assert accounting["borders_touched"] == 0
        assert accounting["sessions_updated"] == 0
        assert _dispatch_counts(service.cache_stats, counters) == (0, 0)
        assert session.matrix is matrix  # the matrix object survived untouched
        before = service.stats.warm_hits
        report = service.explain(labeling, candidates=pool, top_k=None)
        assert service.stats.warm_hits == before + 1
        cold = _cold_render("university", service.system.database.copy(), labeling, pool)
        assert report.render(top_k=None) == cold

    def test_empty_delta_is_noop(self):
        base = build_probe_system("university")
        service = _drift_service("university", base.database.copy())
        before = service.system.database.fingerprint()
        accounting = service.apply_delta(DatabaseDelta.of([], []))
        assert accounting == {
            "added": 0,
            "removed": 0,
            "borders_touched": 0,
            "sessions_updated": 0,
            "cache_invalidated": 0,
        }
        assert service.stats.database_deltas == 0
        assert service.system.database.fingerprint() == before


# -- deterministic work counts ------------------------------------------------


@pytest.mark.service
class TestDeltaWorkCounts:
    @pytest.mark.parametrize("sessions", [1, 3])
    def test_one_dispatch_for_all_live_sessions(self, sessions):
        base = build_probe_system("loans")
        service = ExplanationService(base, radius=1)
        pool = [query for query in probe_pool(base) if isinstance(query, ConjunctiveQuery)]
        for labeling in probe_labelings(base, count=sessions):
            service.explain(labeling, candidates=pool, top_k=None)
        # Constant 3 lies in every shifted probe window, so the delta
        # changes at least one border of every session.
        anchor = sorted(base.domain(), key=repr)[3]
        [delta] = build_delta_stream(
            base.database, Labeling(positives=[anchor], negatives=[]), steps=1
        )
        before = service.cache_stats.as_dict()
        accounting = service.apply_delta(delta)
        assert accounting["sessions_updated"] == sessions
        assert _dispatch_counts(service.cache_stats, before) == (1, len(pool))

    def test_drift_dispatches_only_for_fresh_tuples(self):
        base = build_probe_system("loans")
        evaluator = MatchEvaluator(base, 1)
        labeling = probe_labeling(base)
        matrix = VerdictMatrix(evaluator, BorderColumns.from_labeling(evaluator, labeling))
        pool = probe_pool(base)
        matrix.build(pool)
        stats = base.specification.engine.cache.stats

        before = stats.as_dict()
        columns = matrix.columns
        matrix.apply_drift(
            removed=[columns.negative_tuples[0]], flipped=[columns.positive_tuples[0]]
        )
        assert _dispatch_counts(stats, before) == (0, 0)

        before = stats.as_dict()
        fresh = sorted(base.domain(), key=repr)[6]
        matrix.apply_drift(added=[(fresh, POSITIVE)])
        assert _dispatch_counts(stats, before) == (1, len(pool))

    def test_one_border_lookup_per_column(self, monkeypatch):
        """A delta resolves each distinct (tuple, radius) column of the live
        sessions once, however many sessions hold it."""
        base = build_probe_system("loans")
        service = ExplanationService(base, radius=1)
        pool = [query for query in probe_pool(base) if isinstance(query, ConjunctiveQuery)]
        labelings = probe_labelings(base, count=3)
        for labeling in labelings:
            service.explain(labeling, candidates=pool, top_k=None)
        for labeling in labelings[:2]:
            service.explain(labeling, radius=2, candidates=pool, top_k=None)
        columns = Counter(
            (value, session.radius)
            for _key, session in service._sessions.items()
            for value in session.matrix.columns.tuples
        )
        assert max(columns.values()) > 1  # sessions share columns
        anchor = sorted(base.domain(), key=repr)[3]
        [delta] = build_delta_stream(
            base.database, Labeling(positives=[anchor], negatives=[]), steps=1
        )
        asked = Counter()
        border_of = MatchEvaluator.border_of

        def counted(evaluator, raw, radius=None):
            asked[(raw, radius)] += 1
            return border_of(evaluator, raw, radius)

        monkeypatch.setattr(MatchEvaluator, "border_of", counted)
        accounting = service.apply_delta(delta)
        assert accounting["sessions_updated"] > 0
        assert asked == Counter(dict.fromkeys(columns, 1))


LOANS_SERVE_CYCLES = 150


@pytest.mark.service
def test_loans_serve_deltas_resolve_each_column_once(monkeypatch):
    """The benchmark's ``loans-serve`` stream (seed 1, first 150 cycles,
    24 deltas over 32 sessions of 24 columns drawn from 48 applicants):
    each delta makes one ``border_of`` call per distinct column.  The
    verdict cells, dispatches, sessions updated and borders touched are
    pinned too: resolving columns once changes none of them, and the
    touched count is the exact one."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    workloads = importlib.import_module("e2ebench.workloads")
    workload = workloads.LoansServe(1)
    workload.setup()
    workload.counters.clear()
    calls = []
    border_of = MatchEvaluator.border_of

    def counted(evaluator, raw, radius=None):
        calls.append(raw)
        return border_of(evaluator, raw, radius)

    monkeypatch.setattr(MatchEvaluator, "border_of", counted)
    per_delta = []
    for cycle, step in zip(range(LOANS_SERVE_CYCLES), workload.steps()):
        for request in step:
            calls.clear()
            op = workload.execute(request, probe=lambda: 0.0)
            assert op.error is None, op.error
            if request.kind == "delta":
                per_delta.append((len(calls), len(set(calls))))
    assert per_delta == [(48, 48)] * 24
    counters = workload.counters
    assert {
        name: counters[name]
        for name in (
            "verdict_cells_evaluated",
            "verdict_cells_reused",
            "batch_dispatches",
            "delta_sessions_updated",
            "delta_borders_touched",
        )
    } == {
        "verdict_cells_evaluated": 62_640,
        "verdict_cells_reused": 222_480,
        "batch_dispatches": 24,
        "delta_sessions_updated": 768,
        "delta_borders_touched": 1_044,
    }
