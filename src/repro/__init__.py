"""repro — a full reproduction of "Ontology-based explanation of classifiers".

The library implements the framework of Croce, Cima, Lenzerini and
Catarci (EDBT/ICDT 2020 workshops) for explaining binary classifiers in
terms of queries over a domain ontology, on top of a complete
Ontology-Based Data Management (OBDM) stack built from scratch:

* :mod:`repro.queries`    — conjunctive queries, UCQs, evaluation, containment;
* :mod:`repro.sql`        — the relational data layer (relations, algebra, mini-SQL);
* :mod:`repro.dl`         — DL-Lite_R ontologies and structural reasoning;
* :mod:`repro.obdm`       — mappings, specifications, systems, certain answers;
* :mod:`repro.ml`         — from-scratch classifiers producing the labelings λ;
* :mod:`repro.core`       — borders, J-matching, criteria, Z-scores, explainer;
* :mod:`repro.engine`     — shared evaluation cache, verdict store and match kernels;
* :mod:`repro.service`    — long-lived explanation serving (warm cache, eviction,
  persistence, incremental verdict maintenance);
* :mod:`repro.ontologies` — ready-made domain ontologies (university, loans, ...);
* :mod:`repro.workloads`  — deterministic synthetic data generators;
* :mod:`repro.experiments`— the harness reproducing the paper's numbers.

Quickstart::

    from repro import OntologyExplainer, Labeling
    from repro.ontologies.university import build_university_system

    system = build_university_system()
    labeling = Labeling(positives=["A10", "B80", "C12", "D50"], negatives=["E25"])
    report = OntologyExplainer(system).explain(labeling, radius=1)
    print(report.render())
"""

from .core import (
    Labeling,
    MatchEvaluator,
    MatchProfile,
    OntologyExplainer,
    WeightedAverage,
    example_3_8_expression,
)
from .dl import Ontology, parse_ontology
from .engine import CacheLimits, EvaluationCache
from .obdm import (
    Mapping,
    MappingAssertion,
    OBDMSpecification,
    OBDMSystem,
    SourceDatabase,
    SourceSchema,
)
from .queries import ConjunctiveQuery, UnionOfConjunctiveQueries, parse_cq, parse_ucq
from .service import ExplanationService

__version__ = "1.0.0"

__all__ = [
    "CacheLimits",
    "ConjunctiveQuery",
    "EvaluationCache",
    "ExplanationService",
    "Labeling",
    "Mapping",
    "MappingAssertion",
    "MatchEvaluator",
    "MatchProfile",
    "OBDMSpecification",
    "OBDMSystem",
    "Ontology",
    "OntologyExplainer",
    "SourceDatabase",
    "SourceSchema",
    "UnionOfConjunctiveQueries",
    "WeightedAverage",
    "example_3_8_expression",
    "parse_cq",
    "parse_ontology",
    "parse_ucq",
    "__version__",
]
