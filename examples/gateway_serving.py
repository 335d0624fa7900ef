"""Serving explanations to a fleet of concurrent clients.

Demonstrates `repro.gateway`, the asyncio front end that multiplexes
many tenants and many concurrent clients over warm
`repro.service.ExplanationService` instances:

1. register two tenants (university admissions, loan approvals) with a
   `ServiceRegistry` — services are built lazily, LRU-bounded, and
   shared when their content fingerprints coincide;
2. fire a burst of duplicate concurrent requests and watch them
   coalesce onto one evaluation (every client still gets the full
   report);
3. saturate a tiny gateway and watch it shed deterministically with a
   503-style `GatewayOverloaded` instead of queueing unboundedly;
4. ship the warm replica's snapshot over an asyncio stream so a second
   replica boots warm and ranks identically.

Run with:  PYTHONPATH=src python examples/gateway_serving.py
"""

from __future__ import annotations

import asyncio

from repro.gateway import (
    ExplanationGateway,
    GatewayOverloaded,
    ServiceRegistry,
    SnapshotDonor,
    boot_from_donor,
)
from repro.ontologies.university import (
    build_university_labeling,
    build_university_system,
)
from repro.service import ExplanationService
from repro.workloads.probes import build_probe_system, probe_labeling


def build_loan_system():
    return build_probe_system("loans")


async def coalesced_burst(gateway: ExplanationGateway) -> None:
    labeling = build_university_labeling()
    reports = await asyncio.gather(
        *(gateway.explain("university", labeling) for _ in range(8))
    )
    assert all(report.render() == reports[0].render() for report in reports)
    stats = gateway.stats
    print("burst of 8 identical concurrent requests:")
    print(f"  evaluations actually run : {stats.requests - stats.coalesced_hits}")
    print(f"  coalesced onto the leader: {stats.coalesced_hits}")
    print(f"  best: {reports[0].best.query}")


async def overloaded_gateway() -> None:
    # A deliberately tiny gateway: one admitted request, zero queue.
    registry = ServiceRegistry()
    registry.register("loans", build_loan_system)
    gateway = ExplanationGateway(registry, max_concurrency=1, max_pending=1)
    labeling = probe_labeling(registry.service("loans").system)
    leader = asyncio.ensure_future(gateway.explain("loans", labeling))
    await asyncio.sleep(0)
    try:
        # A *distinct* request (different options → different key) has
        # nowhere to go: shed fast instead of queueing.
        await gateway.explain("loans", labeling, top_k=3)
        print("unexpectedly admitted")
    except GatewayOverloaded as refused:
        print(f"saturated gateway refused with status {refused.status}: {refused}")
    report = await leader
    print(f"  ...while the admitted leader still completed: {report.best.query}")
    await gateway.aclose()


async def snapshot_shipping() -> None:
    donor = ExplanationService(build_university_system())
    labeling = build_university_labeling()
    donor_report = donor.explain(labeling)

    server = SnapshotDonor(donor)
    host, port = await server.start()
    replica = ExplanationService(build_university_system())
    boot = await boot_from_donor(replica, host, port)
    await server.close()

    print(f"replica boot: warm={boot['warm']} loaded={boot.get('loaded')}")
    replica_report = replica.explain(labeling)
    assert replica_report.render() == donor_report.render()
    print(
        f"  replica verdict-row cache hits: "
        f"{replica.cache_stats.verdict_row_hits}, ranking identical"
    )


async def main() -> None:
    registry = ServiceRegistry(capacity=8)
    registry.register("university", build_university_system)
    registry.register("loans", build_loan_system)
    gateway = ExplanationGateway(registry, max_concurrency=4, max_pending=64)

    await coalesced_burst(gateway)
    print()
    await overloaded_gateway()
    print()
    await snapshot_shipping()
    print()
    print(gateway)
    await gateway.aclose()


if __name__ == "__main__":
    asyncio.run(main())
