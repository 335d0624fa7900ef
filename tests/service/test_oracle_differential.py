"""Production vs oracle: every served render equals the Definition 3.4 oracle.

One default :class:`~repro.service.ExplanationService` per case serves
the request kinds a deployment sees — a cold request, a warm repeat, a
labeling drift, a :class:`~repro.obdm.database.DatabaseDelta` and a
``warm_start`` fleet — and every render is compared with a *fresh*
system over the same database content whose
``engine.verdicts.enabled = False`` scores each (query, border) pair
through ``MatchEvaluator.matches_border``.  The cases cover the four
probe domains under the rewriting strategy plus one under the chase.
"""

from __future__ import annotations

import pytest

from repro.core.labeling import Labeling
from repro.experiments.database_drift_exp import build_delta_stream
from repro.experiments.kernel_exp import (
    PROBE_DOMAINS,
    build_probe_system,
    probe_labeling,
    probe_labelings,
    probe_pool,
)
from repro.obdm.system import OBDMSystem
from repro.service import ExplanationService

pytestmark = pytest.mark.service

CASES = [(domain, None) for domain in PROBE_DOMAINS] + [("university", "chase")]


def _render(service: ExplanationService, labeling: Labeling, pool) -> str:
    return service.explain(labeling, candidates=pool, top_k=None).render(top_k=None)


def _oracle_render(domain, strategy, database, labeling, pool) -> str:
    oracle = build_probe_system(domain, strategy=strategy, verdicts=False)
    system = OBDMSystem(oracle.specification, database.copy(), name=f"{domain}_oracle")
    return _render(ExplanationService(system, radius=1), labeling, pool)


def _drifted(system, labeling: Labeling) -> Labeling:
    """Same name, one tuple removed, one flipped, one added per side."""
    constants = sorted(system.domain(), key=repr)[:8]
    assert set(labeling.tuples()) == {(c,) for c in constants[:6]}
    return Labeling(
        positives=[constants[1], constants[2], constants[3], constants[6]],
        negatives=[constants[4], constants[5], constants[7]],
        name=labeling.name,
    )


@pytest.mark.parametrize(
    "domain,strategy", CASES, ids=[f"{d}-{s or 'rewriting'}" for d, s in CASES]
)
def test_served_renders_equal_oracle(domain, strategy):
    system = build_probe_system(domain, strategy=strategy)
    service = ExplanationService(system, radius=1)
    database = system.database
    labeling = probe_labeling(system)
    pool = probe_pool(system)

    def assert_oracle(step: str, served: str, request: Labeling) -> None:
        expected = _oracle_render(domain, strategy, database, request, pool)
        assert served == expected, f"{domain}/{strategy}: {step} diverged from the oracle"

    assert_oracle("cold request", _render(service, labeling, pool), labeling)
    assert_oracle("warm repeat", _render(service, labeling, pool), labeling)
    assert (service.stats.cold_builds, service.stats.warm_hits) == (1, 1)

    drifted = _drifted(system, labeling)
    assert_oracle("labeling drift", _render(service, drifted, pool), drifted)
    assert service.stats.drift_updates == 1

    [delta] = build_delta_stream(database, drifted, steps=1)
    accounting = service.apply_delta(delta)
    assert accounting["sessions_updated"] >= 1, "the delta touched no live session"
    assert_oracle("database delta", _render(service, drifted, pool), drifted)
    assert service.stats.warm_hits == 2, "the delta did not keep the session warm"

    fleet = probe_labelings(system, count=3)[1:]
    counts = service.warm_start(fleet, candidates=pool)
    assert counts["batched"] == 1 and counts["rows"] > 0
    for member in fleet:
        assert_oracle(f"warm_start {member.name}", _render(service, member, pool), member)
    assert service.stats.warm_hits == 2 + len(fleet)
