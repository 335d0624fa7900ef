"""The three workloads of the end-to-end benchmark.

Each workload drives one default-configuration
:class:`~repro.service.ExplanationService` in a closed loop with one
client on one thread.  ``setup()`` builds the seeded inputs and the
resident state; ``steps()`` yields the request stream as lists of
:class:`Request` (a step is the unit after which the run may stop);
``execute()`` serves one request and returns a timed :class:`Op`.  Only
the service call itself is inside the timer.

* ``loans-cold``: a fresh service per request over a shared 200-applicant
  loan database; its first ``explain`` of a labeling is all border-ABox
  retrieval, kernel index and rows.  Candidate generation never runs.
* ``loans-serve``: one resident service over 48 applicants serving a
  read/write mix: labeling drift, warm repeats and database deltas.
* ``university-search``: one resident service over the university domain
  answering ``explain(labeling)`` with generated candidates (the default
  ``enumerate`` strategy and ``CandidateConfig``) for unseen labelings.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import ExplanationService, Labeling
from repro.obdm.database import DatabaseDelta, SourceDatabase
from repro.obdm.system import OBDMSystem
from repro.ontologies.loans import build_loan_system
from repro.ontologies.university import build_university_specification

from e2ebench import inputs

# Per workload: "full" is the benchmark, "tiny" the self-test smoke size.
SCALES = {
    "loans-cold": {
        "full": {"applicants": 200, "per_side": 16, "stride": 7, "pool": 60},
        "tiny": {"applicants": 24, "per_side": 3, "stride": 5, "pool": 12},
    },
    "loans-serve": {
        "full": {"applicants": 48, "per_side": 12, "pool": 60, "names": 8,
                 "warm_per_cycle": 10, "delta_every": 6, "prefill_cycles": 24},
        "tiny": {"applicants": 16, "per_side": 3, "pool": 12, "names": 3,
                 "warm_per_cycle": 4, "delta_every": 2, "prefill_cycles": 2},
    },
    "university-search": {
        "full": {"students": 10, "enrolments": 2, "per_side": 2, "seeds": 5},
        "tiny": {"students": 10, "enrolments": 1, "per_side": 2, "seeds": 5},
    },
}

RADIUS = 1
PROBE_STEPS = 40_000
# host_probe() at full speed on the 2-vCPU Xeon VM the benchmark was sized
# on; set-up times are reported in seconds at that speed.
REFERENCE_PROBE_S = 0.0014


def host_probe() -> float:
    """Seconds this host takes for a fixed, allocation-free interpreter loop.

    On shared machines every process can run ~50% slower for 5-20 s at a
    time while CPU time still equals wall time (contention for the core,
    not descheduling), which moves a run's median more than any change
    worth detecting.  Each operation is bracketed by two probes, and the
    gated latencies are expressed in probe durations (unit ``probe``),
    which cancels most of that drift; raw seconds are reported alongside.
    """
    start = time.perf_counter()
    state = 1
    for _ in itertools.repeat(None, PROBE_STEPS):
        state = (state * 3 + 1) & 63  # small ints are cached: nothing is allocated
    return time.perf_counter() - start


def digest(report) -> str:
    """The checked output of an explain: a hash of the rendered ranking."""
    return hashlib.sha256(report.render(top_k=None).encode("utf-8")).hexdigest()


@dataclass
class Request:
    kind: str  # "miss" (a labeling the service does not hold), "hit" or "delta"
    state: int  # database state the request runs against (after it, for deltas)
    labeling: Optional[Labeling] = None
    delta: Optional[DatabaseDelta] = None

    def key(self) -> str:
        if self.kind == "delta":
            return f"{self.state}|delta"
        return f"{self.state}|{inputs.labeling_key(self.labeling)}"


@dataclass
class Op:
    request: Request
    seconds: float = 0.0
    # Mean duration of the host probe timed right before and after the call.
    host: float = 0.0
    output: Optional[str] = None
    error: Optional[str] = None
    expected: Optional[str] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None and self.output is not None and self.output == self.expected


# The service counter a correctly classified request must bump.
_OUTCOME = {"miss": ("cold_builds", "drift_updates"), "hit": ("warm_hits",)}


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.params = SCALES[self.name][scale]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.service: Optional[ExplanationService] = None
        # Service and cache counter increments of every executed request.
        self.counters: Counter = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def mix(self) -> Dict[str, int]:
        """Operations of each kind in one period of the request stream."""
        return {"miss": 1, "hit": 1}

    def steps(self) -> Iterator[List[Request]]:
        raise NotImplementedError

    def _system(self, database) -> OBDMSystem:
        raise NotImplementedError

    def _reference(self, database, per_pair: bool) -> ExplanationService:
        """A fresh cold service: it shares no cache with the served one.

        With *per_pair* the verdict matrix is disabled, so every verdict
        comes from the Definition 3.4 per-pair J-match.
        """
        system = self._system(database)
        system.specification.engine.verdicts.enabled = not per_pair
        return ExplanationService(system, radius=RADIUS)

    def references(self, requests: List[Request], per_pair: bool = False) -> Dict[str, str]:
        """Expected output of every request, keyed by :meth:`Request.key`."""
        reference = self._reference(self.database, per_pair)
        return _explain_all(reference, requests, self._explain)

    def _explain(self, service: ExplanationService, labeling: Labeling):
        raise NotImplementedError

    def execute(self, request: Request, probe=host_probe) -> Op:
        op = Op(request)
        service = self.service
        before = service.stats.as_dict(), service.cache_stats.as_dict()
        try:
            host = probe()
            start = time.perf_counter()
            if request.kind == "delta":
                service.apply_delta(request.delta)
            else:
                report = self._explain(service, request.labeling)
            op.seconds = time.perf_counter() - start
            op.host = (host + probe()) / 2
            if request.kind == "delta":
                op.output = service.system.database.fingerprint()
            else:
                op.output = digest(report)
        except Exception:  # the benchmark must keep serving; the op counts as failed
            op.error = traceback.format_exc(limit=4)
            return op
        served = service.stats.delta_since(before[0])
        self.counters.update(served)
        self.counters.update(service.cache_stats.delta_since(before[1]))
        expected = _OUTCOME.get(request.kind)
        if expected and not any(served[counter] for counter in expected):
            outcome = [name for name in ("warm_hits", "drift_updates", "cold_builds") if served[name]]
            op.error = f"{request.kind} request was served as {outcome}"
        return op


class LoansCold(Workload):
    name = "loans-cold"
    why = "fresh service per request over 200 applicants: the first explain is ~90% border-ABox retrieval and generation never runs"

    def setup(self) -> None:
        p = self.params
        self.database = inputs.loan_database(p["applicants"], self.seed)
        ids = inputs.ids_of(self.database, "APPLICANT")
        self.order = inputs.shuffled(ids, self.rng)
        self.pool = inputs.fixed_pool(self.database, ids, p["pool"])

    def labeling(self, index: int) -> Labeling:
        p = self.params
        return inputs.window(self.order, index * p["stride"], p["per_side"], f"cold{index}")

    def steps(self) -> Iterator[List[Request]]:
        index = 0
        while True:
            labeling = self.labeling(index)
            yield [Request("miss", 0, labeling), Request("hit", 0, labeling)]
            index += 1

    def execute(self, request: Request, probe=host_probe) -> Op:
        if request.kind == "miss":
            # A stateless deployment: building the service is not timed,
            # its first explain is.
            self.service = None
            gc.collect()
            self.service = ExplanationService(self._system(self.database), radius=RADIUS)
        return super().execute(request, probe)

    def _system(self, database):
        return build_loan_system(database)

    def _explain(self, service, labeling):
        return service.explain(labeling, candidates=self.pool)


class LoansServe(Workload):
    name = "loans-serve"
    why = "resident service, read/write mix: drift (apply_drift), warm repeats (ranking), deltas that touch every border and all 32 sessions"

    def setup(self) -> None:
        p = self.params
        self.database = inputs.loan_database(p["applicants"], self.seed)
        ids = inputs.ids_of(self.database, "APPLICANT")
        order = inputs.shuffled(ids, self.rng)
        spacing = len(order) // p["names"]
        initial = [
            inputs.window(order, k * spacing, p["per_side"], f"serve{k}") for k in range(p["names"])
        ]
        self.names = [labeling.name for labeling in initial]
        self.pool = inputs.fixed_pool(self.database, ids, p["pool"])
        self.drift = inputs.DriftStream(initial, ids, self.rng)
        # Two deltas around labeled applicants, each applied and later
        # undone, so the database cycles D0 → D1 → D0 → D2 → D0 ...
        anchors = self.rng.sample(inputs.signature_of(initial[0])[0], 2)
        self.deltas = [inputs.loan_delta(self.database, anchor, self.rng) for anchor in anchors]
        self.initial_facts = set(self.database.facts)
        self.service = ExplanationService(self._system(self.database), radius=RADIUS)
        for labeling in initial:
            self.service.explain(labeling, candidates=self.pool)
        # Fill the session ring with drifted predecessors so every timed
        # delta re-evaluates the steady-state number of live sessions.
        for cycle in range(p["prefill_cycles"]):
            self.service.explain(self.drift.step(self.names[cycle % len(self.names)]), candidates=self.pool)
        self._cycle_offset = p["prefill_cycles"]

    def mix(self) -> Dict[str, int]:
        p = self.params
        return {"miss": p["delta_every"], "hit": p["delta_every"] * p["warm_per_cycle"], "delta": 1}

    def steps(self) -> Iterator[List[Request]]:
        p = self.params
        names = self.names
        state, applied = 0, 0
        cycle = 0
        while True:
            step: List[Request] = []
            if cycle and cycle % p["delta_every"] == 0:
                pair = (applied // 2) % len(self.deltas)
                delta = self.deltas[pair]
                if applied % 2 == 0:
                    state = pair + 1
                else:
                    delta, state = delta.inverse(), 0
                applied += 1
                step.append(Request("delta", state, delta=delta))
            name = names[(cycle + self._cycle_offset) % len(names)]
            step.append(Request("miss", state, self.drift.step(name)))
            for offset in range(1, p["warm_per_cycle"] + 1):
                held = self.drift.current[names[(cycle + offset) % len(names)]]
                step.append(Request("hit", state, held))
            yield step
            cycle += 1

    def _system(self, database):
        return build_loan_system(database)

    def _explain(self, service, labeling):
        return service.explain(labeling, candidates=self.pool)

    def state_database(self, state: int) -> SourceDatabase:
        """A fresh copy of the database in one state of the delta cycle."""
        database = SourceDatabase(self.database.schema, self.initial_facts, name="reference", strict=False)
        if state:
            database.apply_delta(self.deltas[state - 1])
        return database

    def references(self, requests, per_pair=False):
        expected: Dict[str, str] = {}
        for state in sorted({request.state for request in requests}):
            database = self.state_database(state)
            expected[f"{state}|delta"] = database.fingerprint()
            chosen = [r for r in requests if r.state == state and r.kind != "delta"]
            reference = self._reference(database, per_pair)
            expected.update(_explain_all(reference, chosen, self._explain))
        return expected


class UniversitySearch(Workload):
    name = "university-search"
    why = "second domain, default enumerate search per unseen labeling: generation and verdict rows dominate, retrieval ~1% (retrieval control)"

    def setup(self) -> None:
        p = self.params
        self.database = inputs.university_database(p["students"], p["enrolments"])
        self.ids = inputs.ids_of(self.database, "STUD")
        # Positives come from the students of median border size: their
        # borders are what candidate generation enumerates, and a small
        # set of positive pairs is covered several times by every run.
        sizes = inputs.border_sizes(self.database, self.ids)
        ranked = sorted(self.ids, key=lambda value: (sizes[value], value))
        first = (len(ranked) - p["seeds"]) // 2
        self.seeds = ranked[first:first + p["seeds"]]
        self.seen = set()
        self.service = ExplanationService(self._system(self.database), radius=RADIUS)
        # One unseen labeling served in set-up pays the lazy first-request
        # costs; the timed stream never repeats it.
        self.service.explain(self._next_labeling("warmup"))

    def _next_labeling(self, name: str) -> Labeling:
        per_side = self.params["per_side"]
        for _ in range(1000):
            positives = self.rng.sample(self.seeds, per_side)
            negatives = self.rng.sample([v for v in self.ids if v not in positives], per_side)
            labeling = Labeling(positives, negatives, name=name)
            if inputs.signature_of(labeling) not in self.seen:
                self.seen.add(inputs.signature_of(labeling))
                return labeling
        raise RuntimeError("the university stream ran out of unseen labelings")

    def steps(self) -> Iterator[List[Request]]:
        index = 0
        while True:
            labeling = self._next_labeling(f"search{index}")
            yield [Request("miss", 0, labeling), Request("hit", 0, labeling)]
            index += 1

    def execute(self, request: Request, probe=host_probe) -> Op:
        if request.kind == "miss":
            gc.collect()
        return super().execute(request, probe)

    def _system(self, database):
        return OBDMSystem(build_university_specification(), database)

    def _explain(self, service, labeling):
        return service.explain(labeling)


def _explain_all(service, requests, explain) -> Dict[str, str]:
    expected: Dict[str, str] = {}
    for request in requests:
        if request.key() not in expected:
            expected[request.key()] = digest(explain(service, request.labeling))
    return expected


WORKLOADS = {cls.name: cls for cls in (LoansCold, LoansServe, UniversitySearch)}
