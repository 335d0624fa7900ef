"""Source databases ``D``: finite sets of ground atoms over a schema ``S``.

The paper (Section 2) defines an ``S``-database as a finite set of atoms
``s(c)`` where ``s`` is a predicate of ``S``.  :class:`SourceDatabase`
stores exactly that behind a pluggable :class:`~repro.obdm.backend.StorageBackend`
(``backend="memory"`` keeps the seed's dict layout; ``backend="sqlite"``
keeps facts on disk and pushes mapping source queries down as SQL), and
maintains the two access paths the explanation framework needs:

* a by-predicate lookup, used by query evaluation;
* a by-constant lookup (constant → atoms mentioning it), which makes the
  border computation of Definition 3.2 a sequence of index lookups
  instead of database scans (:meth:`facts_with_any_constant` batches a
  whole BFS frontier into one backend round trip).

Production traffic mutates the database, so the class also supports
**fact-level deltas**: :class:`DatabaseDelta` carries a normalised set
of added/removed ground atoms and :meth:`SourceDatabase.apply_delta`
applies it in place, maintaining the backend and a **content
fingerprint**.  The fingerprint is an order-independent XOR accumulator
of per-fact digests over a *canonical, type-tagged* serialisation
(sha256 — never Python's salted ``hash()``), so two databases hold the
same fingerprint iff they hold the same fact set, across processes,
restarts *and storage backends*: the accumulator lives here, is bumped
around :meth:`~repro.obdm.backend.StorageBackend.add` /
:meth:`~repro.obdm.backend.StorageBackend.remove`, and therefore never
depends on how the backend lays facts out.  Derived databases
(:meth:`restrict_to`, :meth:`copy`, :meth:`from_catalog`,
:meth:`from_rows`) re-insert their facts through :meth:`add_fact` and
carry consistent fingerprints for free.  The engine's delta path
(``repro.engine`` / ``repro.service``) uses the fingerprint to keep
cache snapshots honest across database drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import SchemaError, UnknownRelationError
from ..queries.atoms import Atom
from ..queries.terms import Constant
from ..sql.catalog import Catalog
from .backend import BackendSpec, StorageBackend, resolve_backend
from .schema import RelationSignature, SourceSchema

Value = Union[str, int, float, bool]

_DIGEST_BITS = 128
_DIGEST_MASK = (1 << _DIGEST_BITS) - 1


def _fact_digest(fact: Atom) -> int:
    """A process-stable 128-bit digest of one ground atom.

    Built from a canonical serialisation that *type-tags* every value
    (``Constant(True) != Constant(1)`` must digest differently), and
    hashed with sha256 rather than Python's per-process-salted
    ``hash()`` so fingerprints survive pickling and restarts.
    """
    parts = [fact.predicate, str(fact.arity)]
    for argument in fact.args:
        value = argument.value
        parts.append(f"{type(value).__name__}:{value!r}")
    payload = "\x1f".join(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[: _DIGEST_BITS // 8], "big")


@dataclass(frozen=True)
class DatabaseDelta:
    """A fact-level database change: atoms to add and atoms to remove.

    Use :meth:`DatabaseDelta.of` to build one — it normalises the two
    sides (deduplicated, deterministically ordered, all atoms ground)
    and rejects contradictory deltas that both add and remove the same
    fact.  Deltas are immutable values: they can be logged, shipped to
    replicas, inverted (:meth:`inverse`) and applied to any database
    holding the removed facts.
    """

    added: Tuple[Atom, ...]
    removed: Tuple[Atom, ...]

    @staticmethod
    def of(
        added: Iterable[Atom] = (), removed: Iterable[Atom] = ()
    ) -> "DatabaseDelta":
        added_set = frozenset(added)
        removed_set = frozenset(removed)
        for fact in added_set | removed_set:
            if not fact.is_ground():
                raise SchemaError(f"database deltas carry ground atoms only, got {fact}")
        conflict = added_set & removed_set
        if conflict:
            sample = ", ".join(str(a) for a in sorted(conflict)[:3])
            raise SchemaError(f"delta both adds and removes: {sample}")
        return DatabaseDelta(tuple(sorted(added_set)), tuple(sorted(removed_set)))

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    def constants(self) -> FrozenSet[Constant]:
        """Every constant mentioned on either side of the delta."""
        collected: Set[Constant] = set()
        for fact in self.added:
            collected |= fact.constants()
        for fact in self.removed:
            collected |= fact.constants()
        return frozenset(collected)

    def predicates(self) -> FrozenSet[str]:
        """Every predicate mentioned on either side of the delta."""
        return frozenset(
            fact.predicate for side in (self.added, self.removed) for fact in side
        )

    def inverse(self) -> "DatabaseDelta":
        """The delta that undoes this one."""
        return DatabaseDelta(self.removed, self.added)

    def __str__(self):
        return f"DatabaseDelta(+{len(self.added)}, -{len(self.removed)})"


class SourceDatabase:
    """An ``S``-database: a finite set of ground atoms over schema ``S``."""

    def __init__(
        self,
        schema: Optional[SourceSchema] = None,
        facts: Iterable[Atom] = (),
        name: str = "D",
        strict: bool = True,
        backend: BackendSpec = None,
    ):
        """Create a database.

        With ``strict=True`` (the default) every fact must use a relation
        declared in *schema* with the right arity; with ``strict=False``
        unknown relations are auto-declared with synthetic attributes.
        *backend* selects the storage layer: ``None``/``"memory"`` for
        the in-memory dict layout, ``"sqlite"`` for the on-disk backend,
        or a ready :class:`~repro.obdm.backend.StorageBackend` instance.
        """
        self.name = name
        self.schema = schema if schema is not None else SourceSchema()
        self._strict = strict and schema is not None
        self._backend: StorageBackend = resolve_backend(backend)
        self._fingerprint = 0
        for fact in facts:
            self.add_fact(fact)

    # -- storage backend -------------------------------------------------

    @property
    def backend(self) -> StorageBackend:
        """The storage backend holding the fact set."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The backend kind (``"memory"`` or ``"sqlite"``)."""
        return self._backend.kind

    def supports_pushdown(self) -> bool:
        """Whether mapping source queries can run inside the backend."""
        return bool(getattr(self._backend, "supports_pushdown", False))

    def execute_pushdown(self, source_query) -> Iterator[Tuple[Value, ...]]:
        """Stream a source query's answers from the backend (SQL pushdown).

        Raises :class:`~repro.obdm.backend.PushdownUnsupported` (before
        the first row) when the query has no SQL translation; callers
        fall back to the in-memory executor.
        """
        return self._backend.execute_source(source_query, self.schema)

    def with_backend(self, backend: BackendSpec, name: Optional[str] = None) -> "SourceDatabase":
        """A copy of this database on a different storage backend.

        The copy re-inserts every fact through :meth:`add_fact`, so its
        fingerprint matches this database's by construction.
        """
        return SourceDatabase(
            self.schema,
            self._backend.iter_facts(),
            name or self.name,
            strict=False,
            backend=backend,
        )

    # -- mutation --------------------------------------------------------

    def _validate_fact(self, fact: Atom) -> None:
        """Schema checks for one fact, with no side effects."""
        if not fact.is_ground():
            raise SchemaError(f"cannot insert non-ground atom {fact}")
        if self.schema.has_relation(fact.predicate):
            expected = self.schema.arity_of(fact.predicate)
            if expected != fact.arity:
                raise SchemaError(
                    f"fact {fact} has arity {fact.arity}, schema expects {expected}"
                )
        elif self._strict:
            raise UnknownRelationError(
                f"fact {fact} uses relation {fact.predicate!r} not declared in schema "
                f"{self.schema.name!r}"
            )

    def add_fact(self, fact: Atom) -> None:
        """Insert a ground atom, validating it against the schema."""
        self._validate_fact(fact)
        if not self.schema.has_relation(fact.predicate):
            self.schema.declare_arity(fact.predicate, fact.arity)
        if not self._backend.add(fact):
            return
        self._fingerprint ^= _fact_digest(fact)

    def remove_fact(self, fact: Atom) -> None:
        """Delete a fact, maintaining the backend and the fingerprint."""
        if not self._backend.remove(fact):
            raise SchemaError(
                f"cannot remove fact {fact}: not in database {self.name!r}"
            )
        self._fingerprint ^= _fact_digest(fact)

    def apply_delta(self, delta: DatabaseDelta) -> "SourceDatabase":
        """Apply a fact-level delta in place (removals first, then adds).

        Validates the *whole* delta before mutating anything, so a bad
        delta (unknown removal, non-ground or arity-mismatched add)
        leaves the database untouched.  Returns ``self`` for chaining.
        The content fingerprint is bumped incrementally as each fact is
        indexed/unindexed.
        """
        for fact in delta.removed:
            if fact not in self._backend:
                raise SchemaError(
                    f"delta removes fact {fact} not present in database {self.name!r}"
                )
        for fact in delta.added:
            self._validate_fact(fact)
        for fact in delta.removed:
            self.remove_fact(fact)
        for fact in delta.added:
            self.add_fact(fact)
        return self

    def fingerprint(self) -> str:
        """A process-stable content fingerprint of the current fact set.

        Equal iff the fact sets are equal (order-independent XOR of
        per-fact sha256 digests, prefixed with the fact count), so
        derived databases built from the same facts — ``copy()``,
        ``restrict_to`` over all facts, ``from_catalog`` round trips,
        :meth:`with_backend` conversions — report the same fingerprint,
        and any applied delta bumps it.
        """
        return f"{len(self._backend):x}.{self._fingerprint & _DIGEST_MASK:032x}"

    def add(self, predicate: str, *values: Value) -> Atom:
        """Insert ``predicate(values...)`` and return the created fact."""
        fact = Atom(predicate, tuple(Constant(v) for v in values))
        self.add_fact(fact)
        return fact

    def add_facts(self, facts: Iterable[Atom]) -> None:
        for fact in facts:
            self.add_fact(fact)

    # -- access ------------------------------------------------------------

    @property
    def facts(self) -> FrozenSet[Atom]:
        """The full fact set, materialised.

        Streaming consumers (mapping pushdown, border expansion) avoid
        this property — on a disk backend it loads every fact into
        Python.  Use :meth:`iter_facts` to stream instead.
        """
        return frozenset(self._backend.iter_facts())

    def iter_facts(self) -> Iterator[Atom]:
        """Stream the fact set without materialising it."""
        return self._backend.iter_facts()

    def facts_with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        return self._backend.facts_with_predicate(predicate)

    def facts_with_constant(self, constant: Union[Constant, Value]) -> FrozenSet[Atom]:
        """Atoms in which *constant* occurs — the primitive behind borders."""
        if not isinstance(constant, Constant):
            constant = Constant(constant)
        return self._backend.facts_with_constant(constant)

    def facts_with_any_constant(
        self, constants: Iterable[Union[Constant, Value]]
    ) -> FrozenSet[Atom]:
        """Atoms mentioning any of *constants*, in one batched lookup.

        The border computer expands whole BFS frontiers through this —
        on the SQLite backend a frontier costs a handful of ``IN``
        queries instead of one query per constant.
        """
        normalised = [
            constant if isinstance(constant, Constant) else Constant(constant)
            for constant in constants
        ]
        return self._backend.facts_with_any_constant(normalised)

    def domain(self) -> FrozenSet[Constant]:
        """The active domain ``dom(D)``: every constant occurring in ``D``."""
        return self._backend.domain()

    def domain_values(self) -> FrozenSet[Value]:
        """The active domain as raw Python values."""
        return frozenset(constant.value for constant in self._backend.domain())

    def predicates(self) -> FrozenSet[str]:
        return self._backend.predicates()

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self._backend.iter_facts()))

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._backend

    # -- derived databases ----------------------------------------------------

    def restrict_to(self, facts: Iterable[Atom], name: Optional[str] = None) -> "SourceDatabase":
        """Sub-database induced by a subset of facts (e.g. a border).

        The result always lives on the in-memory backend: borders and
        their retrieved ABoxes are small by construction, and keeping
        them in memory preserves the seed's evaluation path regardless
        of where the parent database stores its facts.
        """
        subset = set(facts)
        unknown = [fact for fact in subset if fact not in self._backend]
        if unknown:
            raise SchemaError(
                f"cannot restrict {self.name!r} to facts not in the database: "
                f"{sorted(str(a) for a in unknown)[:3]}..."
            )
        return SourceDatabase(self.schema, subset, name or f"{self.name}|restricted", strict=False)

    def copy(self, name: Optional[str] = None) -> "SourceDatabase":
        """A fact-for-fact copy on the same backend kind."""
        return SourceDatabase(
            self.schema,
            self._backend.iter_facts(),
            name or self.name,
            strict=False,
            backend=self._backend.kind if self._backend.kind != "abstract" else None,
        )

    # -- conversions -------------------------------------------------------------

    def to_catalog(self) -> Catalog:
        """Materialise the database as a relational catalog."""
        catalog = self.schema.to_catalog(self.name)
        for fact in self._backend.iter_facts():
            if not catalog.has_relation(fact.predicate):
                catalog.create_relation(
                    fact.predicate, tuple(f"a{i + 1}" for i in range(fact.arity))
                )
            catalog.insert(fact.predicate, tuple(argument.value for argument in fact.args))
        return catalog

    @staticmethod
    def from_catalog(catalog: Catalog, name: Optional[str] = None) -> "SourceDatabase":
        """Build a database (and schema) from a relational catalog."""
        schema = SourceSchema.from_catalog(catalog)
        database = SourceDatabase(schema, name=name or catalog.name)
        database.add_facts(catalog.to_atoms())
        return database

    @staticmethod
    def from_rows(
        rows_by_relation: Dict[str, Iterable[Sequence[Value]]],
        schema: Optional[SourceSchema] = None,
        name: str = "D",
        backend: BackendSpec = None,
    ) -> "SourceDatabase":
        """Build a database from ``{relation: [row, ...]}`` dictionaries."""
        database = SourceDatabase(
            schema, name=name, strict=schema is not None, backend=backend
        )
        for relation, rows in rows_by_relation.items():
            for row in rows:
                database.add(relation, *row)
        return database

    def __str__(self):
        return (
            f"SourceDatabase({self.name!r}, {len(self)} facts, "
            f"schema={self.schema.name!r}, backend={self.backend_name!r})"
        )
