"""OBDM specifications ``J = <O, S, M>``.

The specification is the *intensional* level of an OBDM system (Figure 1
of the paper): the ontology, the source schema and the mapping between
the two.  Adding an ``S``-database ``D`` (the *extensional* level)
yields an OBDM system ``Σ = <J, D>`` (:mod:`repro.obdm.system`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..dl.ontology import Ontology
from ..errors import MappingError, OBDMError
from ..queries.cq import ConjunctiveQuery
from ..queries.terms import Constant
from ..queries.ucq import UnionOfConjunctiveQueries
from .certain_answers import CertainAnswerEngine, OntologyQuery
from .database import SourceDatabase
from .mapping import Mapping
from .schema import SourceSchema
from .virtual_abox import VirtualABox


class OBDMSpecification:
    """The triple ``J = <O, S, M>``."""

    def __init__(
        self,
        ontology: Ontology,
        schema: SourceSchema,
        mapping: Mapping,
        name: str = "J",
        strict: bool = False,
        strategy: str = "rewriting",
    ):
        """Create a specification.

        With ``strict=True`` the constructor raises when a mapping target
        predicate is missing from the ontology vocabulary or a mapping
        source relation is missing from the schema.  With the default
        ``strict=False`` missing ontology predicates are auto-declared —
        this mirrors the paper's Example 3.6, where ``taughtIn`` and
        ``locatedIn`` appear only in the mapping.
        """
        self.ontology = ontology
        self.schema = schema
        self.mapping = mapping
        self.name = name
        self._validate(strict)
        self._engine = CertainAnswerEngine(ontology, mapping, strategy=strategy)

    # -- validation -------------------------------------------------------------

    def _validate(self, strict: bool) -> None:
        for assertion in self.mapping:
            for target in assertion.targets:
                predicate = target.predicate
                if not self.ontology.has_predicate(predicate):
                    if strict:
                        raise MappingError(
                            f"mapping target predicate {predicate!r} is not declared in "
                            f"ontology {self.ontology.name!r}"
                        )
                    if target.arity == 1:
                        self.ontology.declare_concept(predicate)
                    elif target.arity == 2:
                        self.ontology.declare_role(predicate)
                    else:
                        raise MappingError(
                            f"mapping target {target} has arity {target.arity}; only "
                            "concepts (1) and roles (2) are supported"
                        )
                else:
                    expected = self.ontology.arity_of(predicate)
                    if expected != target.arity:
                        raise MappingError(
                            f"mapping target {target} has arity {target.arity}, but the "
                            f"ontology declares {predicate!r} with arity {expected}"
                        )
            for relation in assertion.source_predicates():
                if not self.schema.has_relation(relation):
                    if strict:
                        raise MappingError(
                            f"mapping source relation {relation!r} is not in schema "
                            f"{self.schema.name!r}"
                        )
                    # Auto-declare with the arity used in the source query.
                    if isinstance(assertion.source, ConjunctiveQuery):
                        for atom in assertion.source.body:
                            if atom.predicate == relation:
                                self.schema.declare_arity(relation, atom.arity)
                                break

    # -- components ---------------------------------------------------------------

    @property
    def engine(self) -> CertainAnswerEngine:
        return self._engine

    def with_strategy(self, strategy: str) -> "OBDMSpecification":
        """A copy of the specification using a different answering strategy."""
        return OBDMSpecification(
            self.ontology, self.schema, self.mapping, self.name, strict=False, strategy=strategy
        )

    # -- certain answers --------------------------------------------------------------

    def retrieve_abox(self, database: SourceDatabase) -> VirtualABox:
        """Apply ``M`` to a database (the retrieved / virtual ABox)."""
        return self._engine.retrieve(database)

    def certain_answers(
        self,
        query: OntologyQuery,
        database: SourceDatabase,
        abox: Optional[VirtualABox] = None,
    ) -> Set[Tuple[Constant, ...]]:
        """``cert_{query, J}^database`` as a set of constant tuples."""
        return self._engine.certain_answers(query, database, abox=abox)

    def is_certain_answer(
        self,
        query: OntologyQuery,
        answer: Sequence,
        database: SourceDatabase,
        abox: Optional[VirtualABox] = None,
    ) -> bool:
        """Membership test for a single candidate answer tuple."""
        return self._engine.is_certain_answer(query, answer, database, abox=abox)

    def __str__(self):
        return (
            f"OBDMSpecification({self.name!r}: O={self.ontology.name!r} "
            f"[{len(self.ontology)} axioms], S={self.schema.name!r} "
            f"[{len(self.schema)} relations], M={self.mapping.name!r} "
            f"[{len(self.mapping)} assertions])"
        )
