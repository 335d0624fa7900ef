"""Storage-backend parity: memory vs SQLite, pushdown, deltas, serving.

The backend abstraction (:mod:`repro.obdm.backend`) promises that a
:class:`~repro.obdm.database.SourceDatabase` behaves identically over
the seed's dict-indexed ``MemoryBackend`` and the out-of-core
``SQLiteBackend`` — same fact sets, same fingerprints, same retrieved
ABoxes, same borders, same served rankings, snapshots that reload warm
and hold values only — with SQL pushdown as a pure optimisation.  These tests pin that contract across all four
domains, including seeded random add/remove streams and
:class:`~repro.obdm.database.DatabaseDelta` round trips.
"""

import pickle
import random

import pytest

from repro.core.border import BorderComputer
from repro.obdm.backend import (
    MemoryBackend,
    PushdownUnsupported,
    SQLiteBackend,
    decode_value,
    encode_value,
    resolve_backend,
)
from repro.obdm.database import DatabaseDelta, SourceDatabase
from repro.obdm.virtual_abox import retrieve_abox
from repro.ontologies.compas import build_compas_system
from repro.ontologies.loans import build_loan_system
from repro.ontologies.movies import build_movie_system
from repro.ontologies.university import build_university_system
from repro.queries.atoms import Atom
from repro.queries.terms import Constant
from repro.service import ExplanationService

pytestmark = pytest.mark.backend

SYSTEM_BUILDERS = {
    "university": build_university_system,
    "loan": build_loan_system,
    "movie": build_movie_system,
    "compas": build_compas_system,
}


def sqlite_twin(database, pushdown=True):
    backend = SQLiteBackend(pushdown=pushdown)
    return database.with_backend(backend, name=f"{database.name}_sqlite")


class TestValueCodec:
    VALUES = ["S001", "", "a\x1fb", 0, 1, -7, True, False, 1.0, 2.5, -0.0, 10**20]

    def test_round_trip_up_to_constant_equality(self):
        for value in self.VALUES:
            decoded = decode_value(encode_value(value))
            assert Constant(decoded) == Constant(value)

    def test_encoding_equality_matches_constant_equality(self):
        for a in self.VALUES:
            for b in self.VALUES:
                assert (encode_value(a) == encode_value(b)) == (
                    Constant(a) == Constant(b)
                ), (a, b)

    def test_unsupported_value_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            encode_value(object())


class TestResolveBackend:
    def test_names_and_instances(self):
        assert isinstance(resolve_backend(None), MemoryBackend)
        assert isinstance(resolve_backend("memory"), MemoryBackend)
        assert isinstance(resolve_backend("sqlite"), SQLiteBackend)
        backend = SQLiteBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            resolve_backend("postgres")


class TestFingerprintParity:
    @pytest.mark.parametrize("domain", sorted(SYSTEM_BUILDERS))
    def test_content_parity_across_backends(self, domain):
        database = SYSTEM_BUILDERS[domain]().database
        twin = sqlite_twin(database)
        assert twin.backend_name == "sqlite"
        assert database.backend_name == "memory"
        assert len(twin) == len(database)
        assert set(twin.iter_facts()) == set(database.iter_facts())
        assert twin.predicates() == database.predicates()
        assert twin.domain() == database.domain()
        assert twin.fingerprint() == database.fingerprint()

    @pytest.mark.parametrize("domain", sorted(SYSTEM_BUILDERS))
    def test_seeded_add_remove_stream_parity(self, domain):
        database = SYSTEM_BUILDERS[domain]().database
        twin = sqlite_twin(database)
        rng = random.Random(20260807)
        present = sorted(database.iter_facts())
        for step in range(40):
            if present and rng.random() < 0.5:
                fact = present.pop(rng.randrange(len(present)))
                database.remove_fact(fact)
                twin.remove_fact(fact)
            else:
                template = present[rng.randrange(len(present))]
                fresh = Atom(
                    template.predicate,
                    template.args[:-1] + (Constant(f"FRESH_{domain}_{step}"),),
                )
                if fresh in database:
                    continue
                database.add_fact(fresh)
                twin.add_fact(fresh)
                present.append(fresh)
            assert twin.fingerprint() == database.fingerprint(), f"step {step}"
            assert len(twin) == len(database)
        assert set(twin.iter_facts()) == set(database.iter_facts())

    @pytest.mark.parametrize("domain", sorted(SYSTEM_BUILDERS))
    def test_delta_round_trip_parity(self, domain):
        database = SYSTEM_BUILDERS[domain]().database
        twin = sqlite_twin(database)
        before = database.fingerprint()
        facts = sorted(database.iter_facts())
        removed = facts[:3]
        added = [
            Atom(fact.predicate, fact.args[:-1] + (Constant(f"DELTA_{i}"),))
            for i, fact in enumerate(removed)
        ]
        delta = DatabaseDelta.of(added, removed)
        for store in (database, twin):
            store.apply_delta(delta)
        assert twin.fingerprint() == database.fingerprint()
        assert twin.fingerprint() != before
        for store in (database, twin):
            store.apply_delta(delta.inverse())
        assert database.fingerprint() == before
        assert twin.fingerprint() == before

    def test_duplicate_adds_and_numeric_equality_dedup(self):
        database = SourceDatabase(name="dup", strict=False)
        twin = SourceDatabase(name="dup_sq", strict=False, backend="sqlite")
        for store in (database, twin):
            store.add("R", "a", 1)
            store.add("R", "a", 1)  # exact duplicate
            store.add("R", "a", 1.0)  # Constant(1) == Constant(1.0)
            store.add("R", "a", True)  # distinct from 1
        assert len(database) == len(twin) == 2
        assert database.fingerprint() == twin.fingerprint()


class TestRetrievalParity:
    @pytest.mark.parametrize("domain", sorted(SYSTEM_BUILDERS))
    def test_virtual_abox_identical(self, domain):
        system = SYSTEM_BUILDERS[domain]()
        reference = retrieve_abox(system.specification.mapping, system.database).facts
        for pushdown in (True, False):
            twin = sqlite_twin(system.database, pushdown=pushdown)
            assert twin.supports_pushdown() is pushdown
            retrieved = retrieve_abox(system.specification.mapping, twin).facts
            assert retrieved == reference, f"pushdown={pushdown}"

    @pytest.mark.parametrize("domain", sorted(SYSTEM_BUILDERS))
    def test_borders_identical(self, domain):
        database = SYSTEM_BUILDERS[domain]().database
        twin = sqlite_twin(database)
        anchors = sorted(database.domain(), key=lambda c: str(c.value))[:6]
        for radius in (0, 1, 2):
            for anchor in anchors:
                memory_border = BorderComputer(database).border((anchor,), radius)
                sqlite_border = BorderComputer(twin).border((anchor,), radius)
                assert memory_border.layers == sqlite_border.layers
                assert memory_border == sqlite_border

    def test_pushdown_unsupported_falls_back(self):
        # A CQ whose head is empty (boolean query) has no pushdown
        # translation; assertion application must fall back to the
        # legacy in-memory path rather than fail.
        twin = sqlite_twin(build_university_system().database)
        from repro.queries.parser import parse_cq

        with pytest.raises(PushdownUnsupported):
            twin.execute_pushdown(parse_cq("q() :- ENR(x, y, z)"))


class TestServiceOverSQLite:
    def make_pool(self):
        from repro.experiments.scalability import build_loan_pool

        return build_loan_pool(20, 12, 6)

    def make_service(self, database):
        from repro.ontologies.loans import build_loan_specification
        from repro.obdm.system import OBDMSystem

        system = OBDMSystem(build_loan_specification(), database, name="backend_e2e")
        return ExplanationService(system, radius=0)

    def test_explain_and_delta_identical(self):
        bundle = self.make_pool()
        labeling = bundle.labelings[0]
        memory_service = self.make_service(bundle.database.copy(name="m"))
        sqlite_service = self.make_service(sqlite_twin(bundle.database))
        assert sqlite_service.backend_name == "sqlite"
        assert sqlite_service.size_report()["backend"] == "sqlite"

        def render(service):
            return service.explain(
                labeling, candidates=bundle.pool, top_k=None
            ).render(top_k=None)

        assert render(memory_service) == render(sqlite_service)

        anchor = Constant("APP0000")
        removed = sorted(bundle.database.facts_with_constant(anchor))[:1]
        added = [Atom("RESIDES", (anchor, Constant("Venice")))]
        delta = DatabaseDelta.of(added, removed)
        memory_service.apply_delta(delta)
        sqlite_service.apply_delta(delta)
        assert (
            memory_service.system.database.fingerprint()
            == sqlite_service.system.database.fingerprint()
        )
        assert render(memory_service) == render(sqlite_service)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_snapshot_round_trip_holds_no_live_state(self, backend, tmp_path):
        from repro.engine.cache import (
            CacheStats,
            ConstantInterner,
            EvaluationCache,
            LRUStore,
            VerdictStore,
        )

        live = (
            CacheStats,
            ConstantInterner,
            EvaluationCache,
            LRUStore,
            VerdictStore,
            MemoryBackend,
            SQLiteBackend,
            SourceDatabase,
        )
        bundle = self.make_pool()
        labelings = bundle.labelings[:2]

        def database():
            if backend == "sqlite":
                return sqlite_twin(bundle.database)
            return bundle.database.copy(name="memory")

        def renders(service):
            return [
                service.explain(labeling, candidates=bundle.pool, top_k=None).render(top_k=None)
                for labeling in labelings
            ]

        service = self.make_service(database())
        first = renders(service)
        path = tmp_path / "snapshot.bin"
        assert service.save(path)["verdict_rows"] > 0

        # The snapshot is values only: no cache, store, interner, backend
        # or database is pickled into it.
        loaded = []

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                loaded.append(super().find_class(module, name))
                return loaded[-1]

        with open(path, "rb") as handle:
            Recorder(handle).load()
        assert loaded
        assert not [each for each in loaded if isinstance(each, type) and issubclass(each, live)]

        restarted = self.make_service(database())
        assert restarted.load(path)["verdict_rows"] > 0
        assert renders(restarted) == first
        assert restarted.cache_stats.verdict_row_misses == 0

    def test_snapshot_stamping_over_sqlite(self, tmp_path):
        bundle = self.make_pool()
        labeling = bundle.labelings[0]
        service = self.make_service(sqlite_twin(bundle.database))
        service.explain(labeling, candidates=bundle.pool, top_k=None)
        path = tmp_path / "snapshot.bin"
        service.save(path)

        # A fresh service over equal content loads the snapshot...
        twin_service = self.make_service(sqlite_twin(bundle.database))
        assert twin_service.load(path)
        # ...and one whose database has drifted refuses it.
        drifted = self.make_service(sqlite_twin(bundle.database))
        drifted.apply_delta(
            DatabaseDelta.of([Atom("RESIDES", (Constant("APP0001"), Constant("Venice")))], [])
        )
        with pytest.raises(ValueError):
            drifted.load(path)


class TestAlgebraCompilerCornerCases:
    """SQL-compiled algebra trees vs the in-memory evaluator, errors included.

    The compiler promises *exact* ``SchemaError`` parity: a tree that the
    in-memory :mod:`repro.sql.algebra` rejects must be rejected by the
    SQL path with the identical message, and a tree both accept must
    produce the identical row set.
    """

    def build(self):
        from repro.obdm.schema import SourceSchema

        schema = SourceSchema(name="S")
        schema.declare("ENR", ("student", "subject", "university"))
        schema.declare("LOC", ("university", "city"))
        database = SourceDatabase(schema, name="alg")
        database.add("ENR", "A10", "Math", "TV")
        database.add("ENR", "B80", "Math", "Sap")
        database.add("ENR", "C12", "Science", "Norm")
        database.add("LOC", "Sap", "Rome")
        database.add("LOC", "TV", "Rome")
        catalog = schema.to_catalog()
        for fact in database.facts:
            catalog.insert(fact.predicate, tuple(a.value for a in fact.args))
        return sqlite_twin(database), catalog

    def parity_rows(self, tree):
        database, catalog = self.build()
        pushed = set(database.execute_pushdown(tree))
        legacy = tree.evaluate(catalog).rows
        assert pushed == legacy
        return pushed

    def parity_error(self, tree):
        from repro.errors import SchemaError

        database, catalog = self.build()
        with pytest.raises(SchemaError) as pushed:
            database.execute_pushdown(tree)
        with pytest.raises(SchemaError) as legacy:
            tree.evaluate(catalog)
        assert str(pushed.value) == str(legacy.value)
        return str(pushed.value)

    def test_rename_chain_rows(self):
        from repro.sql.algebra import Condition, Rename, Scan, Select

        tree = Select(
            Rename(
                Rename(Scan("LOC", "l"), ("site", "town")), ("campus", "city")
            ),
            (Condition("city", "Rome"),),
        )
        rows = self.parity_rows(tree)
        assert rows == {("Sap", "Rome"), ("TV", "Rome")}

    def test_rename_arity_mismatch_message_parity(self):
        from repro.sql.algebra import Rename, Scan

        message = self.parity_error(Rename(Scan("LOC", "l"), ("only",)))
        assert message == "rename expects 2 attribute names, got 1"

    def test_union_arity_mismatch_message_parity(self):
        from repro.sql.algebra import Scan, Union

        message = self.parity_error(Union(Scan("ENR", "e"), Scan("LOC", "l")))
        assert message == "union of incompatible arities: 3 vs 2"

    def test_cross_product_duplicate_capture_message_parity(self):
        from repro.sql.algebra import CrossProduct, Scan

        message = self.parity_error(CrossProduct(Scan("LOC", "l"), Scan("LOC", "l")))
        assert message == (
            "cross product would produce duplicate attribute names; "
            "use aliases to disambiguate"
        )

    def test_cross_product_with_aliases_joins(self):
        from repro.sql.algebra import Condition, CrossProduct, Project, Scan, Select

        tree = Project(
            Select(
                CrossProduct(Scan("ENR", "e"), Scan("LOC", "l")),
                (Condition("e.university", "l.university", True, True),),
            ),
            ("e.student", "l.city"),
        )
        rows = self.parity_rows(tree)
        assert rows == {("A10", "Rome"), ("B80", "Rome")}

    def test_unknown_attribute_message_parity(self):
        from repro.sql.algebra import Project, Scan

        message = self.parity_error(Project(Scan("LOC", "l"), ("nope",)))
        assert message == (
            "unknown attribute 'nope' among ['l.university', 'l.city']"
        )

    def test_ambiguous_attribute_message_parity(self):
        from repro.sql.algebra import Condition, CrossProduct, Scan, Select

        tree = Select(
            CrossProduct(Scan("ENR", "e"), Scan("LOC", "l")),
            (Condition("university", "TV"),),
        )
        message = self.parity_error(tree)
        assert message.startswith("ambiguous attribute 'university' among ")
