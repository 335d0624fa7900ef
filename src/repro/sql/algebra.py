"""Relational algebra operators over :class:`~repro.sql.relation.Relation`.

The mapping layer of an OBDM specification uses *source queries*: in the
paper these are arbitrary (efficiently computable) queries over the
source schema.  This module implements a small but complete
select-project-join-union-rename algebra, which is the target of the
mini SQL parser (:mod:`repro.sql.sql_parser`) and is also usable
directly as an embedded DSL.

Each operator is a node with an :meth:`evaluate` method taking a
:class:`~repro.sql.catalog.Catalog` and producing a :class:`Relation`.

:meth:`AlgebraNode.lineage` evaluates the same tree with why-provenance:
every output row carries the *witnesses* of its derivations, each the
set of base rows one derivation read.  The algebra is positive
(equality-only selections), hence monotone, so a row is in the result
over a sub-catalog iff one of its witnesses lies inside it.  Each node
computes its output schema (and raises its errors) through one helper
shared by both methods, so the two evaluations agree on rows, schemas
and error messages by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import SchemaError
from .catalog import Catalog
from .relation import Relation, RelationSchema, Row

Value = Union[str, int, float, bool]

Witness = FrozenSet[Hashable]
"""The base-row tokens one derivation of an output row read."""

Lineage = Dict[Row, Set[Witness]]
"""Output rows (deduplicated by value, like :class:`Relation`) → witnesses."""

ScanSource = Callable[[str], Tuple[RelationSchema, Iterable[Tuple[Row, Hashable]]]]
"""Base relation name → its schema and ``(row, token)`` pairs.

It raises :class:`~repro.errors.UnknownRelationError` for unknown names,
like :meth:`Catalog.relation`."""


def attribute_position(reference: str, attributes: Sequence[str]) -> int:
    """Index of an attribute reference (dotted, or bare when unambiguous)."""
    if reference in attributes:
        return attributes.index(reference)
    matches = [i for i, a in enumerate(attributes) if a.split(".")[-1] == reference]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise SchemaError(f"unknown attribute {reference!r} among {list(attributes)}")
    raise SchemaError(f"ambiguous attribute {reference!r} among {list(attributes)}")


class AlgebraNode:
    """Base class of relational algebra expression nodes."""

    def evaluate(self, catalog: Catalog) -> Relation:
        raise NotImplementedError

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        """:meth:`evaluate` with why-provenance over the base relations *scan* reads."""
        raise NotImplementedError

    def output_attributes(self, catalog: Catalog) -> Tuple[str, ...]:
        """Attribute names of the relation this node produces."""
        return self.evaluate(catalog).schema.attributes


@dataclass(frozen=True)
class Scan(AlgebraNode):
    """Read a base relation, optionally renaming it (``FROM R AS alias``)."""

    relation_name: str
    alias: Optional[str] = None

    def _schema(self, base: RelationSchema) -> RelationSchema:
        label = self.alias or self.relation_name
        return RelationSchema(label, tuple(f"{label}.{a}" for a in base.attributes))

    def evaluate(self, catalog: Catalog) -> Relation:
        relation = catalog.relation(self.relation_name)
        renamed = Relation(self._schema(relation.schema))
        for row in relation:
            renamed.add(row)
        return renamed

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        base, rows = scan(self.relation_name)
        result: Lineage = {}
        for row, token in rows:
            result.setdefault(row, set()).add(frozenset((token,)))
        return self._schema(base), result


@dataclass(frozen=True)
class Condition:
    """An equality condition ``left = right``.

    Each side is either an attribute reference (string containing a dot,
    e.g. ``e.student``) or a constant value.  Attribute references are
    resolved against the input schema; a bare attribute name (no dot) is
    accepted when it is unambiguous.
    """

    left: Union[str, Value]
    right: Union[str, Value]
    left_is_attribute: bool = True
    right_is_attribute: bool = False

    def resolve(self, attributes: Sequence[str]) -> Callable[[Tuple], bool]:
        if self.left_is_attribute:
            left_position = attribute_position(str(self.left), attributes)
            left_getter = lambda row: row[left_position]
        else:
            left_getter = lambda row: self.left
        if self.right_is_attribute:
            right_position = attribute_position(str(self.right), attributes)
            right_getter = lambda row: row[right_position]
        else:
            right_getter = lambda row: self.right
        return lambda row: left_getter(row) == right_getter(row)


@dataclass(frozen=True)
class Select(AlgebraNode):
    """Selection: keep rows satisfying every condition."""

    child: AlgebraNode
    conditions: Tuple[Condition, ...]

    def evaluate(self, catalog: Catalog) -> Relation:
        relation = self.child.evaluate(catalog)
        predicates = [c.resolve(relation.schema.attributes) for c in self.conditions]
        result = Relation(relation.schema)
        for row in relation:
            if all(predicate(row) for predicate in predicates):
                result.add(row)
        return result

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        schema, rows = self.child.lineage(scan)
        predicates = [c.resolve(schema.attributes) for c in self.conditions]
        return schema, {
            row: witnesses
            for row, witnesses in rows.items()
            if all(predicate(row) for predicate in predicates)
        }


@dataclass(frozen=True)
class Project(AlgebraNode):
    """Projection onto a list of attribute references (dot or bare names)."""

    child: AlgebraNode
    attributes: Tuple[str, ...]

    def _plan(self, child: RelationSchema) -> Tuple[RelationSchema, List[int]]:
        positions = [
            attribute_position(reference, child.attributes) for reference in self.attributes
        ]
        return RelationSchema(child.name, tuple(self.attributes)), positions

    def evaluate(self, catalog: Catalog) -> Relation:
        relation = self.child.evaluate(catalog)
        schema, positions = self._plan(relation.schema)
        result = Relation(schema)
        for row in relation:
            result.add(tuple(row[p] for p in positions))
        return result

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        child, rows = self.child.lineage(scan)
        schema, positions = self._plan(child)
        result: Lineage = {}
        for row, witnesses in rows.items():
            result.setdefault(tuple(row[p] for p in positions), set()).update(witnesses)
        return schema, result


@dataclass(frozen=True)
class CrossProduct(AlgebraNode):
    """Cartesian product of two inputs (joins = product + selection)."""

    left: AlgebraNode
    right: AlgebraNode

    @staticmethod
    def _schema(left: RelationSchema, right: RelationSchema) -> RelationSchema:
        attributes = left.attributes + right.attributes
        if len(set(attributes)) != len(attributes):
            raise SchemaError(
                "cross product would produce duplicate attribute names; "
                "use aliases to disambiguate"
            )
        return RelationSchema("product", attributes)

    def evaluate(self, catalog: Catalog) -> Relation:
        left = self.left.evaluate(catalog)
        right = self.right.evaluate(catalog)
        result = Relation(self._schema(left.schema, right.schema))
        for left_row in left:
            for right_row in right:
                result.add(left_row + right_row)
        return result

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        left_schema, left = self.left.lineage(scan)
        right_schema, right = self.right.lineage(scan)
        schema = self._schema(left_schema, right_schema)
        result: Lineage = {}
        for left_row, left_witnesses in left.items():
            for right_row, right_witnesses in right.items():
                result.setdefault(left_row + right_row, set()).update(
                    a | b for a in left_witnesses for b in right_witnesses
                )
        return schema, result


@dataclass(frozen=True)
class Union(AlgebraNode):
    """Set union of two inputs with compatible arities."""

    left: AlgebraNode
    right: AlgebraNode

    @staticmethod
    def _check(left: RelationSchema, right: RelationSchema) -> None:
        if left.arity != right.arity:
            raise SchemaError(
                f"union of incompatible arities: {left.arity} vs {right.arity}"
            )

    def evaluate(self, catalog: Catalog) -> Relation:
        left = self.left.evaluate(catalog)
        right = self.right.evaluate(catalog)
        self._check(left.schema, right.schema)
        result = Relation(left.schema)
        for row in left:
            result.add(row)
        for row in right:
            result.add(row)
        return result

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        left_schema, left = self.left.lineage(scan)
        right_schema, right = self.right.lineage(scan)
        self._check(left_schema, right_schema)
        result: Lineage = {row: set(witnesses) for row, witnesses in left.items()}
        for row, witnesses in right.items():
            result.setdefault(row, set()).update(witnesses)
        return left_schema, result


@dataclass(frozen=True)
class Rename(AlgebraNode):
    """Rename output attributes positionally."""

    child: AlgebraNode
    attributes: Tuple[str, ...]

    def _schema(self, child: RelationSchema) -> RelationSchema:
        if len(self.attributes) != child.arity:
            raise SchemaError(
                f"rename expects {child.arity} attribute names, "
                f"got {len(self.attributes)}"
            )
        return RelationSchema(child.name, tuple(self.attributes))

    def evaluate(self, catalog: Catalog) -> Relation:
        relation = self.child.evaluate(catalog)
        result = Relation(self._schema(relation.schema))
        for row in relation:
            result.add(row)
        return result

    def lineage(self, scan: ScanSource) -> Tuple[RelationSchema, Lineage]:
        child, rows = self.child.lineage(scan)
        return self._schema(child), rows


def natural_join(left: AlgebraNode, right: AlgebraNode, catalog: Catalog) -> Relation:
    """Convenience natural join on attributes sharing the same bare name."""
    left_relation = left.evaluate(catalog)
    right_relation = right.evaluate(catalog)
    left_names = {a.split(".")[-1]: i for i, a in enumerate(left_relation.schema.attributes)}
    right_names = {a.split(".")[-1]: i for i, a in enumerate(right_relation.schema.attributes)}
    shared = sorted(set(left_names) & set(right_names))
    kept_right = [
        (i, a)
        for i, a in enumerate(right_relation.schema.attributes)
        if a.split(".")[-1] not in shared
    ]
    attributes = left_relation.schema.attributes + tuple(a for _, a in kept_right)
    result = Relation(RelationSchema("join", attributes))
    for left_row in left_relation:
        for right_row in right_relation:
            if all(left_row[left_names[s]] == right_row[right_names[s]] for s in shared):
                result.add(left_row + tuple(right_row[i] for i, _ in kept_right))
    return result
