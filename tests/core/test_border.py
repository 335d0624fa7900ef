"""Unit tests for borders (Definitions 3.1-3.2, Example 3.3)."""

import pytest

from repro.core.border import Border, BorderComputer
from repro.errors import ExplanationError
from repro.obdm.backend import SQLiteBackend
from repro.queries.atoms import Atom, atoms_constants
from repro.queries.terms import Constant
from repro.workloads.probes import PROBE_DOMAINS, build_probe_system


class TestExample33:
    """The paper's Example 3.3, reproduced atom by atom."""

    def test_layer_0(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        assert computer.layers("a", 0)[0] == frozenset(
            {Atom.of("R", "a", "b"), Atom.of("S", "a", "c")}
        )

    def test_layer_1(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        assert computer.layers("a", 1)[1] == frozenset({Atom.of("Z", "c", "d")})

    def test_layer_2(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        assert computer.layers("a", 2)[2] == frozenset({Atom.of("W", "d", "e")})

    def test_border_of_radius_2(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        border = computer.border("a", 2)
        assert border.atoms == frozenset(
            {
                Atom.of("R", "a", "b"),
                Atom.of("S", "a", "c"),
                Atom.of("Z", "c", "d"),
                Atom.of("W", "d", "e"),
            }
        )

    def test_unconnected_atom_never_included(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        border = computer.border("a", 10)
        assert Atom.of("R", "f", "g") not in border

    def test_far_atom_needs_radius_3(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        assert Atom.of("W", "e", "h") not in computer.border("a", 2)
        assert Atom.of("W", "e", "h") in computer.border("a", 3)


class TestBorderProperties:
    def test_borders_grow_with_radius(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        previous = frozenset()
        for radius in range(5):
            current = computer.border("a", radius).atoms
            assert previous <= current
            previous = current

    def test_border_layers_are_disjoint(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        layers = computer.layers("a", 4)
        seen = set()
        for layer in layers:
            assert not (layer & seen)
            seen |= layer

    def test_unknown_constant_has_empty_border(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        assert computer.border("zzz", 3).size() == 0

    def test_negative_radius_rejected(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        with pytest.raises(ExplanationError):
            computer.border("a", -1)

    def test_cache_returns_same_object(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        assert computer.border("a", 2) is computer.border("a", 2)

    def test_saturation_radius(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        saturation = computer.saturation_radius("a")
        assert saturation == 3  # W(e,h) arrives at radius 3, then nothing changes

    def test_statistics(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        stats = computer.statistics(["a", "f"], 1)
        assert stats["count"] == 2
        assert stats["max"] >= stats["min"]

    def test_multi_constant_tuple_border(self, example_3_3_database):
        computer = BorderComputer(example_3_3_database)
        border = computer.border(("a", "f"), 0)
        assert Atom.of("R", "f", "g") in border
        assert Atom.of("R", "a", "b") in border


class TestUniversityBorders:
    """The borders of radius 1 listed in Example 3.6."""

    @pytest.mark.parametrize(
        "student, expected",
        [
            (
                "A10",
                {
                    Atom.of("STUD", "A10"),
                    Atom.of("ENR", "A10", "Math", "TV"),
                    Atom.of("LOC", "TV", "Rome"),
                },
            ),
            (
                "C12",
                {
                    Atom.of("STUD", "C12"),
                    Atom.of("ENR", "C12", "Science", "Norm"),
                },
            ),
            (
                "E25",
                {
                    Atom.of("STUD", "E25"),
                    Atom.of("ENR", "E25", "Math", "Pol"),
                    Atom.of("LOC", "Pol", "Milan"),
                },
            ),
        ],
    )
    def test_paper_borders_radius_1(self, university_system, student, expected):
        computer = BorderComputer(university_system.database)
        border = computer.border(student, 1)
        # The paper lists exactly these atoms, except that radius 1 also pulls
        # in the other enrolments sharing the same subject/university constants.
        assert expected <= border.atoms
        own_atoms = {a for a in border.atoms if Constant(student) in a.constants()}
        assert own_atoms == {a for a in expected if Constant(student) in a.constants()}

    def test_border_object_interface(self, university_system):
        computer = BorderComputer(university_system.database)
        border = computer.border("A10", 1)
        assert isinstance(border, Border)
        assert border.radius == 1
        assert len(border) == border.size()
        assert Constant("Rome") in atoms_constants(border.atoms)
        assert border.layer(5) == frozenset()
        with pytest.raises(ExplanationError):
            border.layer(-1)


class TestBordersDeduplication:
    """``BorderComputer.borders`` must expand each distinct tuple once."""

    def test_duplicate_raws_expand_layers_once(self, university_system, monkeypatch):
        computer = BorderComputer(university_system.database)
        calls = []
        original = BorderComputer.layers

        def counting_layers(self, raw, radius):
            calls.append(raw)
            return original(self, raw, radius)

        monkeypatch.setattr(BorderComputer, "layers", counting_layers)
        # The same tuple under several raw forms (plain value, 1-tuple,
        # Constant) — the shape drift produces when a tuple moves between
        # labels — must trigger exactly one layer expansion.
        result = computer.borders(["A10", ("A10",), Constant("A10"), "B80"], 1)
        assert len(result) == 2
        assert len(calls) == 2

    def test_second_call_hits_the_border_cache(self, university_system, monkeypatch):
        computer = BorderComputer(university_system.database)
        computer.borders(["A10", "B80"], 1)
        def exploding_layers(self, raw, radius):
            raise AssertionError(f"border cache missed for {raw!r}")

        monkeypatch.setattr(BorderComputer, "layers", exploding_layers)
        again = computer.borders(["A10", "B80", "A10"], 1)
        assert set(again) == {(Constant("A10"),), (Constant("B80"),)}


def reference_layers(facts, key, radius):
    """Definition 3.2 by whole-database scans: ``W_0`` holds the facts
    mentioning a constant of *key*, ``W_{i+1}`` the unseen facts sharing a
    constant with an atom of ``W_i``."""
    layers = [frozenset(fact for fact in facts if fact.constants() & set(key))]
    seen = set(layers[0])
    for _ in range(radius):
        reached = set().union(*(fact.constants() for fact in layers[-1]))
        layers.append(
            frozenset(fact for fact in facts if fact not in seen and fact.constants() & reached)
        )
        seen |= layers[-1]
    return layers


class TestBorderBFS:
    """``BorderComputer.layers`` against the scan reference, on every probe domain."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("domain", PROBE_DOMAINS)
    def test_layers_equal_the_reference_bfs(self, domain, backend):
        database = build_probe_system(domain).database
        if backend == "sqlite":
            database = database.with_backend(SQLiteBackend())
        facts = database.facts
        computer = BorderComputer(database)
        for constant in sorted(database.domain(), key=repr):
            for radius in (0, 1, 2):
                expected = reference_layers(facts, (constant,), radius)
                assert computer.layers((constant,), radius) == expected, (constant, radius)

    @pytest.mark.parametrize("domain", PROBE_DOMAINS)
    def test_layers_hash_no_atom_on_the_memory_backend(self, domain, monkeypatch):
        """The frontier is a set difference over stored hashes."""
        database = build_probe_system(domain).database
        computer = BorderComputer(database)
        calls = []
        original = Atom.__hash__

        def counting_hash(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Atom, "__hash__", counting_hash)
        layers = [
            computer.layers((constant,), 2)
            for constant in sorted(database.domain(), key=repr)
        ]
        assert calls == []
        assert any(layer for per_constant in layers for layer in per_constant[1:])
