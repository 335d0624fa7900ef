"""Mapping layer ``M`` of an OBDM specification.

A mapping assertion relates a *source query* over the schema ``S`` to
an *ontology query* over ``O``.  Following the paper (and the OBDA
literature it builds on) mappings are **sound** and GAV-style: each
assertion has the shape::

    Φ(x₁, ..., xₖ)  ⇝  ψ₁(x⃗), ..., ψₘ(x⃗)

where ``Φ`` is a source query with answer variables ``x₁..xₖ`` and each
``ψᵢ`` is an ontology atom (concept or role atom) over those variables
and constants.  The paper's Example 3.6 uses exactly this shape::

    ENR(x, y, z) ⇝ studies(x, y)
    ENR(x, y, z) ⇝ taughtIn(y, z)
    LOC(x, y)    ⇝ locatedIn(x, y)

Source queries may be conjunctive queries over ``S`` (as above), SQL
text in the select-project-join fragment, or relational algebra trees.

Application has two in-memory evaluators, one per source shape, and
both stream each derived ontology fact together with a *witness* — the
set of source facts one derivation read.  Every source is monotone, so
a fact belongs to the ABox retrieved from a sub-database iff one of its
witnesses lies inside it: retrieval for many borders is one witnessed
pass plus a witness-containment test per border
(:class:`~repro.engine.cache.DerivationTable`).

* **Compiled plans** (border retrieval).  :meth:`Mapping.compiled`
  compiles, once per mapping, every assertion whose source is a
  one-atom CQ into an :class:`AtomPlan`: the constant filters by
  position, the repeated-variable equalities, and each target's
  predicate with the source position (or constant) of each argument.
  :meth:`CompiledMapping.derivations` interns each fresh source fact's
  arguments once and runs every plan of its predicate as a
  filter-and-project on that id tuple, so a derivation is an encoded
  fact filed under its one-fact witness, with no ``Atom``,
  substitution or witness set built on the way.
* **The generic witnessed pass.**  :meth:`MappingAssertion.iter_witnessed`
  evaluates CQ sources over a shared
  :class:`~repro.queries.evaluation.FactIndex` (a witness is the body
  instantiated by one homomorphism) and algebra/SQL sources by
  :meth:`~repro.sql.algebra.AlgebraNode.lineage` straight over the
  facts by predicate (no catalog copy; witnesses follow the lineage of
  the positive select-project-join-union-rename tree).  It serves join
  and algebra sources in border retrieval, over a by-predicate view of
  the pass's facts, and every source in whole-database retrieval:
  :meth:`Mapping.iter_apply` on an in-memory database is the projection
  of :meth:`Mapping.iter_witnessed`.

On a pushdown-capable backend (see :class:`~repro.obdm.backend.SQLiteBackend`)
full-database application materialises nothing: the source query is
compiled to one SQL statement, executed inside the backend, and
:meth:`Mapping.iter_apply` yields the produced ontology facts as a
stream.  A query the backend cannot compile
(:class:`~repro.obdm.backend.PushdownUnsupported`) falls back to the
in-memory path per assertion, so pushdown is an optimisation, never a
semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
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

from ..errors import MappingError, UnknownRelationError
from ..queries.atoms import Atom, Substitution, facts_by_predicate
from ..queries.cq import ConjunctiveQuery
from ..queries.evaluation import FactIndex, iter_matches
from ..queries.parser import parse_cq
from ..queries.terms import Constant, Variable, is_constant, is_variable
from ..sql.algebra import AlgebraNode, CrossProduct, ScanSource
from ..sql.relation import RelationSchema
from ..sql.sql_parser import sql_to_algebra
from .backend import PushdownUnsupported
from .database import SourceDatabase
from .schema import SourceSchema

if TYPE_CHECKING:
    from ..engine.cache import ConstantInterner, EncodedFact

SourceQuerySpec = Union[str, ConjunctiveQuery, AlgebraNode]

Witness = FrozenSet[Atom]
"""The source facts one derivation of an ontology fact read."""

Derivation = Tuple[Atom, Witness]

IndexFactory = Callable[[], FactIndex]

_NO_OTHERS: Witness = frozenset()


def _parse_source_query(source: SourceQuerySpec) -> Union[ConjunctiveQuery, AlgebraNode]:
    """Accept CQ objects, algebra trees, rule text, atom text, or SQL text."""
    if isinstance(source, (ConjunctiveQuery, AlgebraNode)):
        return source
    if not isinstance(source, str):
        raise MappingError(f"unsupported source query specification: {source!r}")
    text = source.strip()
    if text.upper().startswith("SELECT"):
        return sql_to_algebra(text)
    if ":-" in text or "<-" in text:
        return parse_cq(text)
    # A bare atom such as "ENR(x, y, z)": treat it as the identity CQ whose
    # answer variables are the atom's variables in order of appearance.
    atom_query = parse_cq(f"__m({_variables_of_atom_text(text)}) :- {text}")
    return atom_query


def _variables_of_atom_text(text: str) -> str:
    inside = text[text.index("(") + 1: text.rindex(")")]
    names = []
    for piece in inside.split(","):
        piece = piece.strip()
        if piece and piece[0].islower() and not piece[0].isdigit() and "'" not in piece:
            if piece not in names:
                names.append(piece)
    return ", ".join(names)


@dataclass(frozen=True)
class MappingAssertion:
    """A single sound GAV mapping assertion ``source ⇝ ontology atoms``."""

    source: Union[ConjunctiveQuery, AlgebraNode]
    targets: Tuple[Atom, ...]
    label: str = ""

    def __post_init__(self):
        if not self.targets:
            raise MappingError("a mapping assertion needs at least one target atom")
        source_variables = self._source_head_variables()
        if source_variables is not None:
            available = set(source_variables)
            for target in self.targets:
                for argument in target.args:
                    if is_variable(argument) and argument not in available:
                        raise MappingError(
                            f"target atom {target} uses variable {argument} that is not "
                            f"an answer variable of the source query"
                        )

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def create(
        source: SourceQuerySpec,
        targets: Union[str, Atom, Sequence[Union[str, Atom]]],
        label: str = "",
    ) -> "MappingAssertion":
        """Build an assertion from flexible source/target specifications.

        Targets given as text are parsed as atoms, e.g. ``"studies(x, y)"``.
        """
        parsed_source = _parse_source_query(source)
        if isinstance(targets, (str, Atom)):
            targets = [targets]
        parsed_targets: List[Atom] = []
        for target in targets:
            if isinstance(target, Atom):
                parsed_targets.append(target)
            else:
                text = target.strip()
                probe = parse_cq(f"__t({_variables_of_atom_text(text)}) :- {text}")
                parsed_targets.append(probe.body[0])
        return MappingAssertion(parsed_source, tuple(parsed_targets), label)

    # -- inspection --------------------------------------------------------------

    def _source_head_variables(self) -> Optional[Tuple[Variable, ...]]:
        if isinstance(self.source, ConjunctiveQuery):
            return self.source.head
        return None

    def target_predicates(self) -> Set[str]:
        return {target.predicate for target in self.targets}

    def source_predicates(self) -> Set[str]:
        if isinstance(self.source, ConjunctiveQuery):
            return self.source.predicates()
        return set()

    def is_local(self) -> bool:
        """Whether every witness is a single source fact (the source has no join).

        True for one-atom CQ sources and for algebra trees without a
        :class:`~repro.sql.algebra.CrossProduct`.
        """
        if isinstance(self.source, ConjunctiveQuery):
            return len(self.source.body) == 1
        pending = [self.source]
        while pending:
            node = pending.pop()
            if isinstance(node, CrossProduct):
                return False
            pending.extend(
                child
                for child in (getattr(node, name, None) for name in ("child", "left", "right"))
                if isinstance(child, AlgebraNode)
            )
        return True

    # -- application ----------------------------------------------------------------

    def apply(self, database: SourceDatabase, index: Optional[FactIndex] = None) -> Set[Atom]:
        """Apply the assertion to a source database, producing ontology facts.

        For CQ sources the query is evaluated over the database's atoms;
        for SQL/algebra sources over its relations — or, on a
        pushdown-capable backend, either form runs as one SQL statement
        inside the backend.  Every answer tuple is substituted into each
        target atom.
        """
        return set(self.iter_apply(database, index=index))

    def iter_apply(
        self,
        database: SourceDatabase,
        index: Optional[FactIndex] = None,
        index_factory: Optional[IndexFactory] = None,
    ) -> Iterator[Atom]:
        """Stream the assertion's ontology facts (may repeat across rows).

        When *database* supports SQL pushdown (and no pre-built *index*
        forces the in-memory path), the source query executes inside the
        backend and answer rows stream straight into target bindings —
        no fact set, fact index, or catalog is ever materialised.
        Otherwise the facts are the projection of :meth:`iter_witnessed`.
        """
        if index is None and database.supports_pushdown():
            try:
                rows = database.execute_pushdown(self.source)
            except PushdownUnsupported:
                rows = None
            if rows is not None:
                if isinstance(self.source, ConjunctiveQuery):
                    yield from self._bind_head_rows(rows)
                else:
                    variables = self._positional_variables()
                    for row in rows:
                        yield from self._bind_positional(row, variables)
                return
        for fact, _witness in self.iter_witnessed(database, index, index_factory):
            yield fact

    def iter_witnessed(
        self,
        database: SourceDatabase,
        index: Optional[FactIndex] = None,
        index_factory: Optional[IndexFactory] = None,
    ) -> Iterator[Derivation]:
        """Stream ``(fact, witness)`` for every derivation over *database*.

        A fact derived several ways is yielded once per witness.  CQ
        sources evaluate over *index* (else one from *index_factory*,
        else a fresh one); algebra/SQL sources read the database's
        relations directly.  *database* is read through ``facts``,
        ``schema`` and ``facts_with_predicate`` only, so border
        retrieval passes a by-predicate view of a fact set
        (:meth:`CompiledMapping.derivations`).
        """
        if isinstance(self.source, ConjunctiveQuery):
            if index is None:
                index = (
                    index_factory() if index_factory is not None
                    else FactIndex(database.facts)
                )
            for homomorphism, image in iter_matches(self.source, (), index=index):
                witness = frozenset(image)
                # Targets use head variables only (checked at construction),
                # so the whole homomorphism is a valid binding.
                for target in self.targets:
                    fact = target.apply(homomorphism)
                    if fact.is_ground():
                        yield fact, witness
            return
        _schema, rows = self.source.lineage(_scan_source(database))
        variables = self._positional_variables()
        for row, witnesses in rows.items():
            facts = self._bind_positional(row, variables)
            for witness in witnesses:
                for fact in facts:
                    yield fact, witness

    def _bind_head_rows(self, rows: Iterable[Sequence]) -> Iterator[Atom]:
        """Bind raw answer rows by the CQ's head-variable order."""
        head = self.source.head
        for row in rows:
            binding: Substitution = dict(
                zip(head, (Constant(value) for value in row))
            )
            for target in self.targets:
                fact = target.apply(binding)
                if fact.is_ground():
                    yield fact

    def _positional_variables(self) -> List[Variable]:
        # Positional convention for algebra/SQL sources: the i-th output
        # column binds the i-th distinct variable of the target atoms
        # (in order of appearance across targets).
        ordered_variables: List[Variable] = []
        for target in self.targets:
            for argument in target.args:
                if is_variable(argument) and argument not in ordered_variables:
                    ordered_variables.append(argument)
        return ordered_variables

    def _bind_positional(self, row: Sequence, variables: List[Variable]) -> List[Atom]:
        if len(row) < len(variables):
            raise MappingError(
                f"source query returned {len(row)} columns but targets need "
                f"{len(variables)} variables"
            )
        binding = {variable: Constant(value) for variable, value in zip(variables, row)}
        facts = [target.apply(binding) for target in self.targets]
        return [fact for fact in facts if fact.is_ground()]

    def __str__(self):
        source = str(self.source)
        targets = ", ".join(str(target) for target in self.targets)
        prefix = f"[{self.label}] " if self.label else ""
        return f"{prefix}{source} ⇝ {targets}"


@dataclass(frozen=True)
class AtomPlan:
    """A one-atom CQ assertion as a positional filter-and-project.

    A source fact of the atom's predicate and *arity* is an answer iff
    it holds each ``filters`` constant at its position and equal
    arguments at each ``equalities`` pair (a repeated variable).  Each
    target is ``(predicate, positions)``: position ``p < arity`` reads
    the fact's ``p``-th argument, position ``arity + k`` is the plan's
    ``constants[k]``.
    """

    predicate: str
    arity: int
    filters: Tuple[Tuple[int, Constant], ...]
    equalities: Tuple[Tuple[int, int], ...]
    constants: Tuple[Constant, ...]
    targets: Tuple[Tuple[str, Tuple[int, ...]], ...]

    @staticmethod
    def compile(assertion: MappingAssertion) -> Optional["AtomPlan"]:
        """The plan of *assertion*, or ``None`` unless its source is a one-atom CQ."""
        source = assertion.source
        if not isinstance(source, ConjunctiveQuery) or len(source.body) != 1:
            return None
        [atom] = source.body
        filters: List[Tuple[int, Constant]] = []
        equalities: List[Tuple[int, int]] = []
        first: Dict[Variable, int] = {}
        for position, term in enumerate(atom.args):
            if is_constant(term):
                filters.append((position, term))
            elif term in first:
                equalities.append((position, first[term]))
            else:
                first[term] = position
        constants: List[Constant] = []
        targets = []
        for target in assertion.targets:
            positions = []
            for argument in target.args:
                # Target variables are head variables (checked at
                # construction), and head variables occur in the body.
                if is_variable(argument):
                    positions.append(first[argument])
                else:
                    positions.append(atom.arity + len(constants))
                    constants.append(argument)
            targets.append((target.predicate, tuple(positions)))
        return AtomPlan(
            atom.predicate, atom.arity, tuple(filters), tuple(equalities),
            tuple(constants), tuple(targets),
        )

    def encoded(self, interner: "ConstantInterner") -> Tuple:
        """``(arity, filters, equalities, extra, targets)`` with every
        constant replaced by its id under *interner* (``extra`` holds the
        target constants' ids, appended to a fact's ids before projecting)."""
        ident = interner.id
        return (
            self.arity,
            tuple((position, ident(constant)) for position, constant in self.filters),
            self.equalities,
            tuple(ident(constant) for constant in self.constants),
            self.targets,
        )


class _FactView:
    """A fact set read by predicate, standing in for a source database.

    Exactly what :meth:`MappingAssertion.iter_witnessed` reads of a
    database — its ``facts``, its ``schema`` and
    :meth:`facts_with_predicate` — with no storage backend, copy or
    fingerprint behind it.
    """

    def __init__(self, facts: FrozenSet[Atom], schema: SourceSchema):
        self.facts = facts
        self.schema = schema
        self._by_predicate = facts_by_predicate(facts)

    def facts_with_predicate(self, predicate: str) -> Iterable[Atom]:
        return self._by_predicate.get(predicate, ())


class CompiledMapping:
    """A mapping's assertions, each bound to the evaluator of its source shape.

    One-atom CQ sources become :class:`AtomPlan` objects, grouped by
    source predicate; join and algebra sources keep the generic
    :meth:`MappingAssertion.iter_witnessed`.  Built once per
    :class:`Mapping` (:meth:`Mapping.compiled`).
    """

    def __init__(self, assertions: Iterable[MappingAssertion]):
        self.plans: Dict[str, List[AtomPlan]] = {}
        generic: List[MappingAssertion] = []
        for assertion in assertions:
            plan = AtomPlan.compile(assertion)
            if plan is None:
                generic.append(assertion)
            else:
                self.plans.setdefault(plan.predicate, []).append(plan)
        self.generic: Tuple[MappingAssertion, ...] = tuple(generic)

    def derivations(
        self,
        fresh: FrozenSet[Atom],
        scope: FrozenSet[Atom],
        interner: "ConstantInterner",
        schema: SourceSchema,
    ) -> Iterator[Tuple[Atom, Iterable[Tuple["EncodedFact", Witness]]]]:
        """Every derivation of a pass, as ``(source fact, entries)`` groups.

        Each entry ``(encoded fact, others)`` is one derivation of the
        derived fact (encoded under *interner*) whose witness is the
        source fact plus *others*.  Plans read the *fresh* facts only:
        a one-fact witness is new iff its fact is.  The generic
        assertions read every fact of *scope* (the fresh facts, or all
        covered facts too for a non-local mapping) through a
        by-predicate view with *schema*'s relations, and yield each
        distinct ``(fact, witness)`` once; the caller keeps the
        witnesses it needs.
        """
        groups = facts_by_predicate(fresh)
        for predicate, plans in self.plans.items():
            facts = groups.get(predicate)
            if facts:
                yield from _run_plans(
                    facts, [plan.encoded(interner) for plan in plans], interner
                )
        if not self.generic:
            return
        view = _FactView(scope, schema)
        index_factory = _shared_index(view)
        derived: Set[Derivation] = set()
        for assertion in self.generic:
            derived.update(assertion.iter_witnessed(view, index_factory=index_factory))
        encode = interner.encode
        for fact, witness in derived:
            source = next(iter(witness))
            yield source, ((encode(fact), witness - {source} or _NO_OTHERS),)


def _run_plans(
    facts: Iterable[Atom], plans: List[Tuple], interner: "ConstantInterner"
) -> Iterator[Tuple[Atom, Iterable[Tuple["EncodedFact", Witness]]]]:
    """Filter and project each fact's interned arguments through *plans*
    (:meth:`AtomPlan.encoded` tuples); one group per fact deriving anything."""
    ids_of = interner.ids
    for fact in facts:
        ids = ids_of(fact.args)
        derived = set()
        for arity, filters, equalities, extra, targets in plans:
            if len(ids) != arity:
                continue
            for position, ident in filters:
                if ids[position] != ident:
                    break
            else:
                for position, other in equalities:
                    if ids[position] != ids[other]:
                        break
                else:
                    row = ids + extra if extra else ids
                    for predicate, positions in targets:
                        derived.add(
                            (predicate, tuple([row[position] for position in positions]))
                        )
        if derived:
            yield fact, [(encoded, _NO_OTHERS) for encoded in derived]


class Mapping:
    """The mapping ``M``: an ordered collection of mapping assertions."""

    def __init__(self, assertions: Iterable[MappingAssertion] = (), name: str = "M"):
        self.name = name
        self._assertions: List[MappingAssertion] = list(assertions)
        self._compiled: Optional[CompiledMapping] = None

    # -- construction ---------------------------------------------------------

    def add(self, assertion: MappingAssertion) -> None:
        self._assertions.append(assertion)
        self._compiled = None

    def add_assertion(
        self,
        source: SourceQuerySpec,
        targets: Union[str, Atom, Sequence[Union[str, Atom]]],
        label: str = "",
    ) -> MappingAssertion:
        """Create an assertion with :meth:`MappingAssertion.create` and add it."""
        assertion = MappingAssertion.create(source, targets, label)
        self.add(assertion)
        return assertion

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[SourceQuerySpec, Union[str, Sequence[str]]]], name: str = "M") -> "Mapping":
        """Build a mapping from ``(source, target)`` pairs."""
        mapping = Mapping(name=name)
        for source, target in pairs:
            mapping.add_assertion(source, target)
        return mapping

    # -- inspection -------------------------------------------------------------

    @property
    def assertions(self) -> Tuple[MappingAssertion, ...]:
        return tuple(self._assertions)

    def target_predicates(self) -> Set[str]:
        predicates: Set[str] = set()
        for assertion in self._assertions:
            predicates |= assertion.target_predicates()
        return predicates

    def source_predicates(self) -> Set[str]:
        predicates: Set[str] = set()
        for assertion in self._assertions:
            predicates |= assertion.source_predicates()
        return predicates

    def __len__(self) -> int:
        return len(self._assertions)

    def __iter__(self) -> Iterator[MappingAssertion]:
        return iter(self._assertions)

    def is_local(self) -> bool:
        """Whether every assertion's witnesses are single source facts."""
        return all(assertion.is_local() for assertion in self._assertions)

    def compiled(self) -> CompiledMapping:
        """The assertions compiled for border retrieval, built on first use.

        :meth:`add` drops them, so the next call compiles the new
        assertion too.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledMapping(self._assertions)
        return compiled

    # -- application ----------------------------------------------------------------

    def apply(self, database: SourceDatabase) -> Set[Atom]:
        """Apply every assertion to *database* (the retrieved/virtual ABox)."""
        return set(self.iter_apply(database))

    def iter_apply(self, database: SourceDatabase) -> Iterator[Atom]:
        """Stream the retrieved facts of every assertion.

        On the in-memory backend this is the projection of
        :meth:`iter_witnessed`.  On a pushdown-capable backend no index
        is built at all unless some assertion's query has no SQL
        translation — then the index is built lazily, once, for exactly
        the falling-back assertions.  Facts may repeat across
        assertions; callers deduplicate (the virtual ABox is a
        frozenset).
        """
        if not database.supports_pushdown():
            for fact, _witness in self.iter_witnessed(database):
                yield fact
            return
        index_factory = _shared_index(database)
        for assertion in self._assertions:
            yield from assertion.iter_apply(database, index_factory=index_factory)

    def iter_witnessed(self, database: SourceDatabase) -> Iterator[Derivation]:
        """Every assertion's ``(fact, witness)`` derivations over *database*.

        Always the in-memory path (no pushdown); CQ sources share one
        lazily built fact index.
        """
        index_factory = _shared_index(database)
        for assertion in self._assertions:
            yield from assertion.iter_witnessed(database, index_factory=index_factory)

    def __str__(self):
        lines = [f"Mapping {self.name!r}:"]
        lines += [f"  {assertion}" for assertion in self._assertions]
        return "\n".join(lines)


def _shared_index(database: SourceDatabase) -> IndexFactory:
    """A factory building one fact index over *database*, on first call."""
    shared: List[FactIndex] = []

    def index_factory() -> FactIndex:
        if not shared:
            shared.append(FactIndex(database.facts))
        return shared[0]

    return index_factory


def _scan_source(database: SourceDatabase) -> ScanSource:
    """The database's relations as lineage input; each row's token is its fact.

    Relations and the unknown-relation error are those of
    :meth:`SourceDatabase.to_catalog` (every stored predicate is declared
    in the schema), without copying the facts into a catalog.
    """
    schema = database.schema

    def scan(name: str):
        if not schema.has_relation(name):
            raise UnknownRelationError(
                f"unknown relation {name!r}; catalog contains {schema.relation_names()}"
            )
        rows = (
            (tuple(argument.value for argument in fact.args), fact)
            for fact in database.facts_with_predicate(name)
        )
        return RelationSchema(name, schema.relation(name).attributes), rows

    return scan
