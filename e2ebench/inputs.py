"""Seeded inputs of the end-to-end benchmark.

Everything a workload sends to the program is built here from the
workload seed: the source databases (through the ``repro.workloads``
generators), the labeling windows, the labeling-drift stream, the
database-delta stream and the fixed candidate pools (through the public
candidate generator).  The same seed always gives the same inputs, and
every stream is a pure function of the step index, never of time, so a
run that stops early has served a prefix of the same request sequence.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

from repro import Labeling
from repro.core.border import BorderComputer
from repro.core.candidates import CandidateConfig, CandidateGenerator
from repro.obdm.database import DatabaseDelta, SourceDatabase
from repro.ontologies.loans import build_loan_system
from repro.queries.atoms import Atom
from repro.queries.terms import Constant
from repro.workloads.loans_gen import (
    AMOUNT_BANDS,
    CITIES,
    PURPOSES,
    LoanWorkloadConfig,
    generate_loan_workload,
)
from repro.workloads.university_gen import (
    UniversityWorkloadConfig,
    generate_university_workload,
)

Signature = Tuple[Tuple[str, ...], Tuple[str, ...]]


def loan_database(applicants: int, seed: int) -> SourceDatabase:
    return generate_loan_workload(LoanWorkloadConfig(applicants=applicants, seed=seed)).database


def university_database(students: int, enrolments: int) -> SourceDatabase:
    """The university database, from the generator's own default seed.

    Unlike the loan databases this one does not follow the workload
    seed: at a dozen students the generator's random subject/university
    choices change the cost of a search by 2x from one database to the
    next, which would swamp every change the benchmark should detect.
    The workload seed picks the labelings instead.
    """
    config = UniversityWorkloadConfig(students=students, enrolments_per_student=enrolments)
    return generate_university_workload(config).database


def border_sizes(database: SourceDatabase, ids: Sequence[str]) -> Dict[str, int]:
    """Radius-1 border size (source facts) of each id."""
    computer = BorderComputer(database)
    return {value: len(computer.border(value, 1)) for value in ids}


def ids_of(database: SourceDatabase, relation: str) -> List[str]:
    """The first-column values of one relation, sorted (applicants, students)."""
    return sorted(fact.args[0].value for fact in database.facts_with_predicate(relation))


def shuffled(values: Sequence[str], rng: random.Random) -> List[str]:
    order = list(values)
    rng.shuffle(order)
    return order


def signature_of(labeling: Labeling) -> Signature:
    """A hashable, order-free identity of a labeling's content."""
    return (
        tuple(sorted(t[0].value for t in labeling.positives)),
        tuple(sorted(t[0].value for t in labeling.negatives)),
    )


def labeling_key(labeling: Labeling) -> str:
    """The text key of a labeling: its name and sorted content."""
    positives, negatives = signature_of(labeling)
    return f"{labeling.name}|+{','.join(positives)}|-{','.join(negatives)}"


def window(order: Sequence[str], start: int, per_side: int, name: str) -> Labeling:
    """Positives ``order[start:start+P]``, negatives the next P (cyclic)."""
    size = len(order)
    picked = [order[(start + offset) % size] for offset in range(2 * per_side)]
    return Labeling(picked[:per_side], picked[per_side:], name=name)


def fixed_pool(database: SourceDatabase, ids: Sequence[str], size: int) -> List:
    """The fixed candidate list of the loan workloads (generated in set-up).

    Bottom-up candidates of at most two atoms over a fresh system, cut at
    *size* by the generator's deterministic ``max_candidates`` order.
    The pool fills from its first seed, and generation is quadratic in
    that seed's border, so the seed is the applicant of median border
    size: the pool, and the set-up time, are typical of the database.
    """
    sizes = border_sizes(database, ids)
    seed = sorted(ids, key=lambda value: (sizes[value], value))[len(ids) // 2]
    generator = CandidateGenerator(
        build_loan_system(database), 1, CandidateConfig(max_atoms=2, max_candidates=size)
    )
    return list(generator.generate(Labeling([seed], name="pool")))


class DriftStream:
    """Labeling drift under fixed names, one step at a time.

    Each step of one name flips one positive to negative and one
    negative to positive, and swaps one labeled applicant for one outside
    the labeling (keeping its label), so the sizes stay constant.  A step
    never returns to a labeling the stream has produced before: the
    service would answer such a request as a warm hit, not as drift.
    """

    def __init__(self, initial: Sequence[Labeling], universe: Sequence[str], rng: random.Random):
        self._rng = rng
        self._universe = sorted(universe)
        self.current: Dict[str, Labeling] = {labeling.name: labeling for labeling in initial}
        self._seen: Set[Signature] = {signature_of(labeling) for labeling in initial}

    def step(self, name: str) -> Labeling:
        current = self.current[name]
        positives, negatives = (list(side) for side in signature_of(current))
        outside = sorted(set(self._universe) - set(positives) - set(negatives))
        for _ in range(100):
            rng = self._rng
            pos, neg = list(positives), list(negatives)
            a, b = rng.randrange(len(pos)), rng.randrange(len(neg))
            pos[a], neg[b] = neg[b], pos[a]
            side = pos if rng.random() < 0.5 else neg
            side[rng.randrange(len(side))] = rng.choice(outside)
            drifted = Labeling(pos, neg, name=name)
            if signature_of(drifted) not in self._seen:
                self._seen.add(signature_of(drifted))
                self.current[name] = drifted
                return drifted
        raise RuntimeError(f"drift stream for {name!r} found no unseen labeling")


def loan_delta(database: SourceDatabase, applicant: str, rng: random.Random) -> DatabaseDelta:
    """Retire two facts of one applicant and insert two changed ones.

    The applicant's residence and loan application are replaced by a
    different city and a different amount band / purpose; the delta's
    inverse restores the original database exactly.
    """
    resides = next(iter(database.facts_with_constant(applicant) & database.facts_with_predicate("RESIDES")))
    loan = next(iter(database.facts_with_constant(applicant) & database.facts_with_predicate("LOANAPP")))
    city = resides.args[1].value
    loan_id, _, band, purpose = (argument.value for argument in loan.args)
    new_city = rng.choice([c for c in CITIES if c != city])
    new_band = rng.choice([name for name, _ in AMOUNT_BANDS if name != band])
    new_purpose = rng.choice([p for p in PURPOSES if p != purpose])
    return DatabaseDelta.of(
        added=[
            Atom("RESIDES", (Constant(applicant), Constant(new_city))),
            Atom("LOANAPP", tuple(Constant(v) for v in (loan_id, applicant, new_band, new_purpose))),
        ],
        removed=[resides, loan],
    )
