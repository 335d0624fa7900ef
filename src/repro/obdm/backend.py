"""Pluggable storage backends for :class:`~repro.obdm.database.SourceDatabase`.

The seed stored every source database as in-memory Python dicts.  That
representation is perfect for the paper's examples but caps the system
at "fits in RAM": the ROADMAP's beyond-RAM open item asks for databases
whose fact sets never materialise as Python objects.  This module is
the seam: :class:`SourceDatabase` delegates all storage to a
:class:`StorageBackend` and keeps only schema validation and the
content-fingerprint accumulator for itself.

Two backends ship:

:class:`MemoryBackend`
    The seed's dict/set layout, extracted verbatim: a fact set plus
    by-predicate and by-constant indexes.  The default — every
    behaviour of the seed is preserved byte for byte.

:class:`SQLiteBackend`
    One table per relation over the stdlib ``sqlite3`` (columns
    ``c0..c{n-1}``, a composite primary key for set semantics and one
    index per column for constant lookups), in a temp file by default.
    Facts live on disk; Python only ever holds the rows a lookup
    returns.  The backend additionally supports **SQL pushdown**: a
    mapping source query (conjunctive query or relational algebra
    tree) is compiled to one SQLite ``SELECT`` and executed inside the
    database instead of materialising the fact set for the in-memory
    executor (:meth:`SQLiteBackend.execute_source`).

Values are stored under a canonical **tagged text encoding**
(:func:`encode_value` / :func:`decode_value`) whose equality matches
:class:`~repro.queries.terms.Constant` equality exactly: booleans are
tagged apart from the integers they coerce to, while an integral float
canonicalises to its integer form (``Constant(1) == Constant(1.0)``).
This makes SQLite's primary-key deduplication and ``WHERE`` equality
agree with the in-memory set semantics, which is what keeps
fingerprints and deltas byte-identical across backends.  One documented
deviation: pushed-down algebra conditions compare at *Constant*
granularity, so a literal ``1`` never equals a stored ``True`` (the
in-memory executor compares raw Python values, where ``True == 1``);
no domain mixes booleans with 0/1 integers in a source query.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
import threading
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import SchemaError, UnknownRelationError
from ..queries.atoms import Atom
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Constant, is_constant, is_variable
from ..sql.algebra import (
    AlgebraNode,
    Condition,
    CrossProduct,
    Project,
    Rename,
    Scan,
    Select,
    Union as AlgebraUnion,
)
from ..sql.relation import RelationSchema

Value = Union[str, int, float, bool]

_FETCH_BATCH = 1024


class PushdownUnsupported(Exception):
    """Raised when a source query cannot be compiled to backend SQL.

    The mapping layer catches this and falls back to the in-memory
    executor over a materialised catalog, so an exotic query is slower,
    never wrong.
    """


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------


def encode_value(value: Value) -> str:
    """Canonical tagged text encoding of one database value.

    ``encode_value(a) == encode_value(b)`` iff ``Constant(a) ==
    Constant(b)``: booleans carry their own tag (``bool`` is an ``int``
    subclass, but ``Constant(True) != Constant(1)``), and an integral
    float collapses onto the integer tag (``Constant(1) ==
    Constant(1.0)``), so storage-level deduplication reproduces the
    in-memory set semantics exactly.
    """
    if isinstance(value, bool):
        return "b:1" if value else "b:0"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        if value.is_integer():
            return f"i:{int(value)}"
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{value}"
    raise SchemaError(f"unsupported database value type: {type(value).__name__}")


def decode_value(text: str) -> Value:
    """Inverse of :func:`encode_value` (up to Constant equality)."""
    tag, payload = text[0], text[2:]
    if tag == "s":
        return payload
    if tag == "i":
        return int(payload)
    if tag == "f":
        return float(payload)
    if tag == "b":
        return payload == "1"
    raise SchemaError(f"corrupt encoded value {text!r}")


# ---------------------------------------------------------------------------
# the backend protocol
# ---------------------------------------------------------------------------


class StorageBackend:
    """Storage protocol behind :class:`~repro.obdm.database.SourceDatabase`.

    A backend stores ground atoms and answers indexed point lookups; it
    never validates against a schema (that stays in ``SourceDatabase``)
    and never maintains the content fingerprint (the database XORs
    per-fact digests around :meth:`add` / :meth:`remove`, which is what
    makes fingerprints backend-independent for free).  ``add`` and
    ``remove`` report whether they changed anything, so the owner can
    digest exactly the facts that entered or left storage.
    """

    kind: str = "abstract"
    supports_pushdown: bool = False

    def add(self, fact: Atom) -> bool:
        raise NotImplementedError

    def remove(self, fact: Atom) -> bool:
        raise NotImplementedError

    def __contains__(self, fact: Atom) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def iter_facts(self) -> Iterator[Atom]:
        raise NotImplementedError

    def facts_with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        raise NotImplementedError

    def facts_with_constant(self, constant: Constant) -> FrozenSet[Atom]:
        raise NotImplementedError

    def facts_with_any_constant(self, constants: Iterable[Constant]) -> FrozenSet[Atom]:
        """Atoms mentioning *any* of the constants (one batched lookup).

        The border computer expands whole BFS frontiers through this —
        per-constant loops would cost one query per constant on a disk
        backend.
        """
        raise NotImplementedError

    def predicates(self) -> FrozenSet[str]:
        raise NotImplementedError

    def domain(self) -> FrozenSet[Constant]:
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (files, connections); idempotent."""


class MemoryBackend(StorageBackend):
    """The seed's in-memory layout: a fact set plus two dict indexes."""

    kind = "memory"

    def __init__(self):
        self._facts: Set[Atom] = set()
        self._by_predicate: Dict[str, Set[Atom]] = {}
        self._by_constant: Dict[Constant, Set[Atom]] = {}

    def add(self, fact: Atom) -> bool:
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_predicate.setdefault(fact.predicate, set()).add(fact)
        for argument in fact.args:
            self._by_constant.setdefault(argument, set()).add(fact)
        return True

    def remove(self, fact: Atom) -> bool:
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        bucket = self._by_predicate[fact.predicate]
        bucket.discard(fact)
        if not bucket:
            del self._by_predicate[fact.predicate]
        for argument in set(fact.args):
            owners = self._by_constant[argument]
            owners.discard(fact)
            if not owners:
                del self._by_constant[argument]
        return True

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def iter_facts(self) -> Iterator[Atom]:
        return iter(self._facts)

    def facts_with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        return frozenset(self._by_predicate.get(predicate, ()))

    def facts_with_constant(self, constant: Constant) -> FrozenSet[Atom]:
        return frozenset(self._by_constant.get(constant, ()))

    def facts_with_any_constant(self, constants: Iterable[Constant]) -> FrozenSet[Atom]:
        collected: Set[Atom] = set()
        for constant in constants:
            bucket = self._by_constant.get(constant)
            if bucket:
                collected |= bucket
        return frozenset(collected)

    def predicates(self) -> FrozenSet[str]:
        return frozenset(self._by_predicate)

    def domain(self) -> FrozenSet[Constant]:
        return frozenset(self._by_constant)


# ---------------------------------------------------------------------------
# SQLite backend
# ---------------------------------------------------------------------------


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


class SQLiteBackend(StorageBackend):
    """Facts in SQLite: one table per relation, indexed per column.

    A relation ``R`` of arity ``n`` becomes table ``fact_R`` with
    ``TEXT`` columns ``c0..c{n-1}`` holding tagged value encodings, a
    composite primary key over all columns (``WITHOUT ROWID`` — the
    fact *is* the key, set semantics come from ``INSERT OR IGNORE``)
    and one secondary index per column, so both primitives behind the
    explanation framework — facts of a predicate, facts mentioning a
    constant — are index lookups.

    The connection lives in a temp file by default (deleted on
    :meth:`close`/GC) and is shared across threads behind a lock:
    callers like the gateway's worker threads only ever read
    concurrently, and mutation is serialised a level up by the service.
    """

    kind = "sqlite"

    def __init__(self, path: Optional[str] = None, pushdown: bool = True):
        self.pushdown = pushdown
        self._owns_file = path is None
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro_sqlite_", suffix=".db")
            os.close(handle)
        self.path = path
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._connection.execute("PRAGMA journal_mode=MEMORY")
        self._connection.execute("PRAGMA synchronous=OFF")
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS meta_relations ("
            "name TEXT PRIMARY KEY, arity INTEGER NOT NULL)"
        )
        self._arities: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        for name, arity in self._connection.execute(
            "SELECT name, arity FROM meta_relations"
        ).fetchall():
            self._arities[name] = arity
            (count,), = self._connection.execute(
                f"SELECT COUNT(*) FROM {self._table(name)}"
            ).fetchall()
            self._counts[name] = count

    @property
    def supports_pushdown(self) -> bool:
        return self.pushdown

    # -- schema ----------------------------------------------------------

    @staticmethod
    def _table(predicate: str) -> str:
        return _quote(f"fact_{predicate}")

    def _ensure_table(self, predicate: str, arity: int) -> None:
        known = self._arities.get(predicate)
        if known is not None:
            if known != arity:
                raise SchemaError(
                    f"relation {predicate!r} stored with arity {known}, got {arity}"
                )
            return
        columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(arity))
        key = ", ".join(f"c{i}" for i in range(arity))
        table = self._table(predicate)
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {table} ({columns}, "
            f"PRIMARY KEY ({key})) WITHOUT ROWID"
        )
        for i in range(arity):
            index_name = _quote(f"idx_fact_{predicate}_c{i}")
            self._connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index_name} ON {table} (c{i})"
            )
        self._connection.execute(
            "INSERT OR REPLACE INTO meta_relations (name, arity) VALUES (?, ?)",
            (predicate, arity),
        )
        self._arities[predicate] = arity
        self._counts.setdefault(predicate, 0)

    # -- mutation --------------------------------------------------------

    def _encoded(self, fact: Atom) -> Tuple[str, ...]:
        return tuple(encode_value(argument.value) for argument in fact.args)

    def add(self, fact: Atom) -> bool:
        with self._lock:
            self._ensure_table(fact.predicate, fact.arity)
            placeholders = ", ".join("?" for _ in fact.args)
            cursor = self._connection.execute(
                f"INSERT OR IGNORE INTO {self._table(fact.predicate)} "
                f"VALUES ({placeholders})",
                self._encoded(fact),
            )
            if cursor.rowcount == 1:
                self._counts[fact.predicate] += 1
                return True
            return False

    def remove(self, fact: Atom) -> bool:
        with self._lock:
            if self._arities.get(fact.predicate) != fact.arity:
                return False
            condition = " AND ".join(f"c{i} = ?" for i in range(fact.arity))
            cursor = self._connection.execute(
                f"DELETE FROM {self._table(fact.predicate)} WHERE {condition}",
                self._encoded(fact),
            )
            if cursor.rowcount == 1:
                self._counts[fact.predicate] -= 1
                return True
            return False

    # -- lookups ---------------------------------------------------------

    def __contains__(self, fact: Atom) -> bool:
        with self._lock:
            if self._arities.get(fact.predicate) != fact.arity:
                return False
            condition = " AND ".join(f"c{i} = ?" for i in range(fact.arity))
            rows = self._connection.execute(
                f"SELECT 1 FROM {self._table(fact.predicate)} WHERE {condition} LIMIT 1",
                self._encoded(fact),
            ).fetchall()
            return bool(rows)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def _decode_row(self, predicate: str, row: Sequence[str]) -> Atom:
        return Atom(predicate, tuple(Constant(decode_value(text)) for text in row))

    def iter_facts(self) -> Iterator[Atom]:
        for predicate in sorted(self._arities):
            if not self._counts.get(predicate):
                continue
            with self._lock:
                cursor = self._connection.execute(
                    f"SELECT * FROM {self._table(predicate)}"
                )
            while True:
                with self._lock:
                    batch = cursor.fetchmany(_FETCH_BATCH)
                if not batch:
                    break
                for row in batch:
                    yield self._decode_row(predicate, row)

    def facts_with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        if not self._counts.get(predicate):
            return frozenset()
        with self._lock:
            rows = self._connection.execute(
                f"SELECT * FROM {self._table(predicate)}"
            ).fetchall()
        return frozenset(self._decode_row(predicate, row) for row in rows)

    def facts_with_constant(self, constant: Constant) -> FrozenSet[Atom]:
        return self.facts_with_any_constant((constant,))

    def facts_with_any_constant(self, constants: Iterable[Constant]) -> FrozenSet[Atom]:
        encoded = sorted({encode_value(constant.value) for constant in constants})
        if not encoded:
            return frozenset()
        collected: Set[Atom] = set()
        # Chunk the IN lists: SQLite's default parameter ceiling is 999,
        # and a radius-r frontier can mention thousands of constants.
        chunk_size = 400
        for predicate, arity in sorted(self._arities.items()):
            if not self._counts.get(predicate):
                continue
            table = self._table(predicate)
            for start in range(0, len(encoded), chunk_size):
                chunk = encoded[start : start + chunk_size]
                marks = ", ".join("?" for _ in chunk)
                condition = " OR ".join(f"c{i} IN ({marks})" for i in range(arity))
                with self._lock:
                    rows = self._connection.execute(
                        f"SELECT * FROM {table} WHERE {condition}",
                        tuple(chunk) * arity,
                    ).fetchall()
                for row in rows:
                    collected.add(self._decode_row(predicate, row))
        return frozenset(collected)

    def predicates(self) -> FrozenSet[str]:
        return frozenset(
            predicate for predicate, count in self._counts.items() if count
        )

    def domain(self) -> FrozenSet[Constant]:
        collected: Set[Constant] = set()
        for predicate, arity in sorted(self._arities.items()):
            if not self._counts.get(predicate):
                continue
            table = self._table(predicate)
            for i in range(arity):
                with self._lock:
                    rows = self._connection.execute(
                        f"SELECT DISTINCT c{i} FROM {table}"
                    ).fetchall()
                for (text,) in rows:
                    collected.add(Constant(decode_value(text)))
        return frozenset(collected)

    # -- SQL pushdown ----------------------------------------------------

    def execute_source(self, query, schema=None) -> Iterator[Tuple[Value, ...]]:
        """Run a mapping source query inside SQLite, streaming answers.

        *query* is a :class:`~repro.queries.cq.ConjunctiveQuery` or an
        algebra tree; *schema* (a ``SourceSchema``) supplies attribute
        names for algebra ``Scan`` nodes.  Compilation happens eagerly —
        :class:`PushdownUnsupported` is raised before the first row, so
        the mapping layer can fall back to the in-memory executor.
        Answer tuples are decoded to raw Python values and deduplicated
        by ``DISTINCT`` (set semantics, like the in-memory paths).
        """
        if isinstance(query, ConjunctiveQuery):
            compiled = self._compile_cq(query)
        elif isinstance(query, AlgebraNode):
            compiled = _AlgebraCompiler(self, schema).compile(query)
            compiled = (f"SELECT * FROM ({compiled.sql})", compiled.params)
        else:
            raise PushdownUnsupported(f"cannot push down {type(query).__name__}")
        if compiled is None:
            return iter(())
        sql, params = compiled
        return self._stream(sql, params)

    def _stream(self, sql: str, params: Sequence) -> Iterator[Tuple[Value, ...]]:
        with self._lock:
            cursor = self._connection.execute(sql, tuple(params))
        while True:
            with self._lock:
                batch = cursor.fetchmany(_FETCH_BATCH)
            if not batch:
                return
            for row in batch:
                yield tuple(decode_value(text) for text in row)

    def _compile_cq(self, query: ConjunctiveQuery):
        """CQ → one SELECT: body atoms as scans, joins on shared variables."""
        if not query.head:
            raise PushdownUnsupported("boolean CQ sources stay on the legacy path")
        conditions: List[str] = []
        params: List[str] = []
        tables: List[str] = []
        variable_site: Dict = {}
        for i, atom in enumerate(query.body):
            arity = self._arities.get(atom.predicate)
            if arity != atom.arity or not self._counts.get(atom.predicate):
                # No stored fact can match this atom, so the CQ is empty
                # (the in-memory evaluator reaches the same answer via an
                # empty candidate bucket).
                return None
            tables.append(f"{self._table(atom.predicate)} AS t{i}")
            for j, argument in enumerate(atom.args):
                column = f"t{i}.c{j}"
                if is_constant(argument):
                    conditions.append(f"{column} = ?")
                    params.append(encode_value(argument.value))
                elif argument in variable_site:
                    conditions.append(f"{column} = {variable_site[argument]}")
                else:
                    variable_site[argument] = column
        head_columns = ", ".join(
            f"{variable_site[variable]} AS h{i}"
            for i, variable in enumerate(query.head)
        )
        sql = f"SELECT DISTINCT {head_columns} FROM {', '.join(tables)}"
        if conditions:
            sql += f" WHERE {' AND '.join(conditions)}"
        return sql, params

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        connection, self._connection = getattr(self, "_connection", None), None
        if connection is not None:
            try:
                connection.close()
            except Exception:
                pass
        if self._owns_file and self.path and os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self._owns_file = False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


class _Compiled:
    """One compiled algebra node: SQL text, parameters, output attributes."""

    __slots__ = ("sql", "params", "attributes")

    def __init__(self, sql: str, params: Tuple, attributes: Tuple[str, ...]):
        self.sql = sql
        self.params = params
        self.attributes = attributes


def _attribute_position(reference: str, attributes: Sequence[str]) -> int:
    """Resolve an attribute reference like the in-memory algebra does.

    Exact match first, then a unique bare-name suffix match; unknown and
    ambiguous references raise the same :class:`SchemaError` messages as
    :meth:`repro.sql.algebra.Condition.resolve`.
    """
    if reference in attributes:
        return list(attributes).index(reference)
    matches = [i for i, a in enumerate(attributes) if a.split(".")[-1] == reference]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise SchemaError(f"unknown attribute {reference!r} among {list(attributes)}")
    raise SchemaError(f"ambiguous attribute {reference!r} among {list(attributes)}")


class _AlgebraCompiler:
    """Compile select-project-join-union-rename trees to SQLite SQL.

    Every compiled node exposes positional output columns ``k0..k{n-1}``
    (attribute names are tracked Python-side, sidestepping quoting of
    dotted references) and produces a deduplicated relation, matching
    the set semantics of :class:`~repro.sql.relation.Relation` at every
    node: scans are deduplicated by primary key, projections and unions
    say ``DISTINCT``/``UNION``, and the remaining operators preserve
    deduplication.
    """

    def __init__(self, backend: SQLiteBackend, schema):
        self._backend = backend
        self._schema = schema
        self._aliases = 0

    def _alias(self) -> str:
        self._aliases += 1
        return f"s{self._aliases}"

    def compile(self, node: AlgebraNode) -> _Compiled:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, Select):
            return self._select(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, CrossProduct):
            return self._cross(node)
        if isinstance(node, AlgebraUnion):
            return self._union(node)
        if isinstance(node, Rename):
            return self._rename(node)
        raise PushdownUnsupported(
            f"no SQL translation for algebra node {type(node).__name__}"
        )

    def _scan(self, node: Scan) -> _Compiled:
        if self._schema is None or not self._schema.has_relation(node.relation_name):
            raise UnknownRelationError(
                f"unknown relation {node.relation_name!r} in source schema"
            )
        signature = self._schema.relation(node.relation_name)
        label = node.alias or node.relation_name
        attributes = tuple(f"{label}.{a}" for a in signature.attributes)
        columns = ", ".join(f"c{i} AS k{i}" for i in range(signature.arity))
        if self._backend._counts.get(node.relation_name):
            sql = f"SELECT {columns} FROM {self._backend._table(node.relation_name)}"
        else:
            empty = ", ".join(f"NULL AS k{i}" for i in range(signature.arity))
            sql = f"SELECT {empty} WHERE 0"
        return _Compiled(sql, (), attributes)

    def _condition_sql(
        self, condition: Condition, alias: str, attributes: Sequence[str]
    ) -> Tuple[str, Tuple]:
        params: List[str] = []

        def side(value, is_attribute: bool) -> str:
            if is_attribute:
                position = _attribute_position(str(value), attributes)
                return f"{alias}.k{position}"
            params.append(encode_value(value))
            return "?"

        left = side(condition.left, condition.left_is_attribute)
        right = side(condition.right, condition.right_is_attribute)
        return f"{left} = {right}", tuple(params)

    def _select(self, node: Select) -> _Compiled:
        child = self.compile(node.child)
        alias = self._alias()
        clauses: List[str] = []
        params: List = list(child.params)
        for condition in node.conditions:
            clause, clause_params = self._condition_sql(
                condition, alias, child.attributes
            )
            clauses.append(clause)
            params.extend(clause_params)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT * FROM ({child.sql}) AS {alias}{where}"
        return _Compiled(sql, tuple(params), child.attributes)

    def _project(self, node: Project) -> _Compiled:
        child = self.compile(node.child)
        # Validate the output attribute list exactly like the in-memory
        # Project (duplicate names raise the same SchemaError).
        RelationSchema("projection", tuple(node.attributes))
        alias = self._alias()
        columns = ", ".join(
            f"{alias}.k{_attribute_position(reference, child.attributes)} AS k{i}"
            for i, reference in enumerate(node.attributes)
        )
        sql = f"SELECT DISTINCT {columns} FROM ({child.sql}) AS {alias}"
        return _Compiled(sql, child.params, tuple(node.attributes))

    def _cross(self, node: CrossProduct) -> _Compiled:
        left = self.compile(node.left)
        right = self.compile(node.right)
        attributes = left.attributes + right.attributes
        if len(set(attributes)) != len(attributes):
            raise SchemaError(
                "cross product would produce duplicate attribute names; "
                "use aliases to disambiguate"
            )
        left_alias, right_alias = self._alias(), self._alias()
        columns = ", ".join(
            [f"{left_alias}.k{i} AS k{i}" for i in range(len(left.attributes))]
            + [
                f"{right_alias}.k{i} AS k{i + len(left.attributes)}"
                for i in range(len(right.attributes))
            ]
        )
        sql = (
            f"SELECT {columns} FROM ({left.sql}) AS {left_alias}, "
            f"({right.sql}) AS {right_alias}"
        )
        return _Compiled(sql, left.params + right.params, attributes)

    def _union(self, node: AlgebraUnion) -> _Compiled:
        left = self.compile(node.left)
        right = self.compile(node.right)
        if len(left.attributes) != len(right.attributes):
            raise SchemaError(
                f"union of incompatible arities: {len(left.attributes)} vs "
                f"{len(right.attributes)}"
            )
        left_alias, right_alias = self._alias(), self._alias()
        sql = (
            f"SELECT * FROM ({left.sql}) AS {left_alias} "
            f"UNION SELECT * FROM ({right.sql}) AS {right_alias}"
        )
        return _Compiled(sql, left.params + right.params, left.attributes)

    def _rename(self, node: Rename) -> _Compiled:
        child = self.compile(node.child)
        if len(node.attributes) != len(child.attributes):
            raise SchemaError(
                f"rename expects {len(child.attributes)} attribute names, "
                f"got {len(node.attributes)}"
            )
        return _Compiled(child.sql, child.params, tuple(node.attributes))


_BACKENDS = {"memory": MemoryBackend, "sqlite": SQLiteBackend}

BackendSpec = Union[None, str, StorageBackend]


def resolve_backend(backend: BackendSpec) -> StorageBackend:
    """Materialise a backend from ``None``/name/instance specifications."""
    if backend is None:
        return MemoryBackend()
    if isinstance(backend, StorageBackend):
        return backend
    if isinstance(backend, str):
        try:
            return _BACKENDS[backend]()
        except KeyError:
            raise SchemaError(
                f"unknown storage backend {backend!r}; available: {sorted(_BACKENDS)}"
            ) from None
    raise SchemaError(f"unsupported storage backend specification: {backend!r}")
