"""Perfect separation: conditions (1) and (2) of Section 3.

A query *perfectly separates* ``λ+`` from ``λ-`` when it J-matches the
border of every positive tuple and of no negative tuple.  Example 3.6
shows that such a query need not exist even in simple cases, which is
what motivates the paper's criteria-based relaxation.

This module offers two levels of analysis:

* :meth:`SeparabilityChecker.check_query` / :meth:`find_separator` —
  test concrete candidate queries (sound but obviously not a proof of
  non-existence when every candidate fails);
* :meth:`SeparabilityChecker.decide_cq_separability` — an exact decision
  for the CQ language under the border semantics, based on the classical
  product-homomorphism argument used in query-by-example / concept-
  separability work (e.g. the paper's references [3, 13]): a separating
  CQ exists iff the direct product of the (saturated) positive border
  structures does **not** homomorphically map into any negative border
  structure.  The witness query, when it exists, is the canonical query
  of that product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ExplanationError
from ..obdm.certain_answers import OntologyQuery
from ..obdm.chase import ChaseEngine, is_labelled_null
from ..obdm.system import OBDMSystem
from ..obdm.virtual_abox import VirtualABox
from ..queries.atoms import Atom
from ..queries.containment import core_of
from ..queries.cq import ConjunctiveQuery
from ..queries.evaluation import FactIndex, contains_tuple
from ..queries.terms import Constant, Term, Variable
from .labeling import ConstantTuple, Labeling, normalize_tuple
from .matching import MatchEvaluator


@dataclass(frozen=True)
class SeparabilityResult:
    """Outcome of a separability analysis."""

    separable: Optional[bool]
    """``True``/``False`` when decided, ``None`` when the analysis gave up."""

    witness: Optional[ConjunctiveQuery]
    """A perfectly separating query, when one was found."""

    method: str
    """Which analysis produced the verdict (``candidates`` or ``product``)."""

    detail: str = ""

    def __str__(self):
        verdict = {True: "separable", False: "not separable", None: "undecided"}[self.separable]
        witness = f"; witness: {self.witness}" if self.witness is not None else ""
        return f"SeparabilityResult({verdict} via {self.method}{witness})"


class SeparabilityChecker:
    """Checks whether a perfectly separating query exists."""

    def __init__(
        self,
        system: OBDMSystem,
        labeling: Labeling,
        radius: int = 1,
        evaluator: Optional[MatchEvaluator] = None,
        max_product_size: int = 20_000,
    ):
        self.system = system
        self.labeling = labeling
        self.radius = radius
        self.evaluator = evaluator or MatchEvaluator(system, radius)
        self.max_product_size = max_product_size
        self._chaser = ChaseEngine(system.ontology)

    # -- candidate-based analysis ------------------------------------------------

    def check_query(self, query: OntologyQuery) -> bool:
        """Conditions (1) and (2) for a concrete query."""
        profile = self.evaluator.profile(query, self.labeling)
        return profile.is_perfect_separation()

    def find_separator(self, candidates: Iterable[OntologyQuery]) -> Optional[OntologyQuery]:
        """First candidate that perfectly separates, or ``None``."""
        for candidate in candidates:
            if self.check_query(candidate):
                return candidate
        return None

    def check_candidates(self, candidates: Iterable[OntologyQuery]) -> SeparabilityResult:
        witness = self.find_separator(candidates)
        if witness is not None:
            witness_cq = witness if isinstance(witness, ConjunctiveQuery) else None
            return SeparabilityResult(True, witness_cq, "candidates")
        return SeparabilityResult(
            None,
            None,
            "candidates",
            detail="no candidate separated; not a proof of non-existence",
        )

    # -- exact decision for CQs -----------------------------------------------------

    def _border_aboxes(self, raws: Sequence) -> List[VirtualABox]:
        """Retrieved ABoxes of the tuples' borders, in one evaluator batch."""
        return self.evaluator.border_aboxes([self.evaluator.border_of(raw) for raw in raws])

    def _saturated(self, abox: VirtualABox) -> FrozenSet[Atom]:
        """Chased ontology facts of one border's ABox (its border structure)."""
        return frozenset(self._chaser.chase(abox.facts))

    def decide_cq_separability(self) -> SeparabilityResult:
        """Exact decision of CQ-separability under the border semantics.

        Builds the direct product of the saturated border structures of
        the positive tuples (with the classified constants as the
        distinguished element) and checks for a homomorphism into each
        negative border structure that maps the distinguished element to
        the negative tuple.  No homomorphism into any negative structure
        means a separating CQ exists (the product's canonical query);
        a homomorphism into some negative structure means **no** CQ can
        separate, because any CQ matching all positives also maps into
        the product, hence into that negative structure.
        """
        if self.labeling.arity != 1:
            return SeparabilityResult(
                None, None, "product", detail="product decision implemented for unary λ only"
            )
        positives = sorted(self.labeling.positives, key=repr)
        negatives = sorted(self.labeling.negatives, key=repr)
        if not positives:
            return SeparabilityResult(None, None, "product", detail="λ+ is empty")

        structures = [self._saturated(abox) for abox in self._border_aboxes(positives)]
        product_atoms, distinguished = self._product(structures, [t[0] for t in positives])
        if product_atoms is None:
            return SeparabilityResult(
                None, None, "product", detail="product structure exceeded the size budget"
            )
        if not product_atoms:
            return SeparabilityResult(
                False,
                None,
                "product",
                detail="the positive borders share no ontology facts, so every CQ "
                "matching all positives is unsafe or matches everything",
            )

        witness_query = self._canonical_query(product_atoms, distinguished)
        if witness_query is None:
            return SeparabilityResult(
                False,
                None,
                "product",
                detail="the product structure has no atom involving the distinguished element",
            )

        for negative, abox in zip(negatives, self._border_aboxes(negatives)):
            structure = self._saturated(abox)
            if self._maps_into(product_atoms, distinguished, structure, negative[0]):
                return SeparabilityResult(
                    False,
                    None,
                    "product",
                    detail=f"product of positive borders maps into the border of {negative[0]}",
                )
        return SeparabilityResult(True, witness_query, "product")

    # -- product construction ----------------------------------------------------------

    def _product(
        self, structures: Sequence[FrozenSet[Atom]], distinguished_constants: Sequence[Constant]
    ) -> Tuple[Optional[FrozenSet[Atom]], Constant]:
        """Direct product of relational structures (ontology fact sets).

        Elements of the product are tuples of elements; they are encoded
        as constants with a tuple value rendered as a string.  An element
        whose components are all the same constant ``c`` is identified
        with ``c`` itself, so query constants keep their meaning.
        """
        distinguished = tuple(distinguished_constants)
        atoms: Set[Atom] = set()
        predicates: Dict[str, List[List[Atom]]] = {}
        for structure in structures:
            by_predicate: Dict[str, List[Atom]] = {}
            for atom in structure:
                by_predicate.setdefault(atom.predicate, []).append(atom)
            for predicate, atom_list in by_predicate.items():
                predicates.setdefault(predicate, []).append(atom_list)

        def encode(components: Tuple[Constant, ...]) -> Constant:
            if all(component == components[0] for component in components):
                return components[0]
            rendered = "|".join(str(component.value) for component in components)
            return Constant(f"_prod({rendered})")

        for predicate, per_structure in predicates.items():
            if len(per_structure) != len(structures):
                # The predicate is missing from some positive structure, so
                # the product has no atoms for it.
                continue
            combinations = 1
            for atom_list in per_structure:
                combinations *= len(atom_list)
            if combinations > self.max_product_size:
                return None, encode(distinguished)
            arity = per_structure[0][0].arity
            for combo in itertools.product(*per_structure):
                if any(atom.arity != arity for atom in combo):
                    continue
                arguments = []
                for position in range(arity):
                    components = tuple(atom.args[position] for atom in combo)
                    arguments.append(encode(components))
                atoms.add(Atom(predicate, tuple(arguments)))
        return frozenset(atoms), encode(distinguished)

    def _canonical_query(
        self, product_atoms: FrozenSet[Atom], distinguished: Constant
    ) -> Optional[ConjunctiveQuery]:
        """Canonical CQ of the product, with the distinguished element as answer."""
        relevant = [atom for atom in product_atoms if distinguished in atom.args]
        if not relevant:
            return None
        mapping: Dict[Constant, Term] = {distinguished: Variable("x")}
        counter = itertools.count()

        def term_of(constant: Constant) -> Term:
            if constant in mapping:
                return mapping[constant]
            value = constant.value
            is_product_element = isinstance(value, str) and value.startswith("_prod(")
            if is_product_element or is_labelled_null(constant):
                mapping[constant] = Variable(f"y{next(counter)}")
            else:
                mapping[constant] = constant
            return mapping[constant]

        body = tuple(
            Atom(atom.predicate, tuple(term_of(argument) for argument in atom.args))
            for atom in sorted(product_atoms)
        )
        query = ConjunctiveQuery((Variable("x"),), body)
        # The canonical query of the product can be large; minimising it
        # keeps the witness readable (and δ5-friendly).
        if query.atom_count() <= 12:
            return core_of(query)
        return query

    def _maps_into(
        self,
        product_atoms: FrozenSet[Atom],
        distinguished: Constant,
        structure: FrozenSet[Atom],
        target: Constant,
    ) -> bool:
        """Homomorphism test from the product into a negative structure."""
        query = self._canonical_query(product_atoms, distinguished)
        if query is None:
            return True
        index = FactIndex(structure)
        return contains_tuple(query, (target,), (), index=index)
