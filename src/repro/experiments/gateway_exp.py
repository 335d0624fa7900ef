"""Experiment E15: async gateway serving vs naive-serialized deployments.

The "millions of users" question: what does the *serving architecture*
buy, holding the evaluation engine fixed?  The naive deployment
answers each request serially with a stateless worker (fresh
specification, empty cache — one full evaluation per request); the
gateway answers the same request stream concurrently over one warm
:class:`~repro.service.ExplanationService`, coalescing identical
in-flight requests so duplicate traffic costs one evaluation, and
serving repeats from the warm session ring.

Three rows:

* ``warm_coalesced_vs_naive`` — the same request stream (``labelings``
  distinct sessions × ``duplicates`` concurrent clients × ``rounds``
  bursts) served both ways; reports must be identical
  request-for-request, and ``benchmarks/bench_gateway.py`` gates the
  sustained-throughput ratio at ≥3×.  The row carries the gateway's
  client-visible latency percentiles (p50/p99) and its coalescing /
  shedding counters.
* ``overload_shed`` — a deliberately saturated gateway
  (``max_pending=1``) must shed a second distinct request
  deterministically with the 503-style
  :class:`~repro.errors.GatewayOverloaded` *while the first completes
  normally* — backpressure never corrupts admitted work.
* ``snapshot_shipping`` — a fresh replica boots warm from the serving
  replica's snapshot over an asyncio stream
  (:class:`~repro.gateway.shipping.SnapshotDonor`) and must rank the
  stream's first request identically to its donor, with the donor's
  verdict rows surviving the trip.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional

from ..engine.cache import CacheLimits
from ..errors import GatewayOverloaded
from ..gateway import ExplanationGateway, ServiceRegistry, SnapshotDonor, boot_from_donor
from ..obdm.system import OBDMSystem
from ..ontologies.loans import build_loan_specification
from ..service import ExplanationService
from .scalability import build_loan_pool
from .tables import ExperimentResult


def _build_system(database) -> OBDMSystem:
    return OBDMSystem(build_loan_specification(), database, name="loan_gateway_e15")


def run_gateway_serving(
    applicants: int = 30,
    candidate_pool: int = 16,
    labeled_per_side: int = 8,
    labelings: int = 3,
    duplicates: int = 6,
    rounds: int = 2,
    max_concurrency: int = 4,
    seed: int = 7,
) -> ExperimentResult:
    """E15: warm-coalesced gateway serving vs naive-serialized workers."""
    workload = build_loan_pool(
        applicants, candidate_pool, labeled_per_side, labelings=labelings, seed=seed
    )
    database, pool = workload.database, list(workload.pool)
    stream = list(workload.labelings)
    total_requests = len(stream) * duplicates * rounds

    # -- naive-serialized: a stateless worker per request ------------------
    start = time.perf_counter()
    naive_reports = {}
    for _ in range(rounds):
        for labeling in stream:
            for _ in range(duplicates):
                report = ExplanationService(_build_system(database), radius=1).explain(
                    labeling, candidates=pool, top_k=None
                )
                naive_reports[labeling.name] = report
    naive_seconds = time.perf_counter() - start

    # -- gateway: one warm replica, concurrent coalesced clients ----------
    registry = ServiceRegistry(capacity=4)
    registry.register(
        "loans",
        lambda: _build_system(database),
        radius=1,
        cache_limits=CacheLimits(
            saturations=1024, border_aboxes=1024, verdict_queries=4096, matches=100_000
        ),
    )
    gateway = ExplanationGateway(
        registry=registry, max_concurrency=max_concurrency, max_pending=total_requests
    )

    async def serve_stream() -> List:
        reports = []
        for _ in range(rounds):
            burst = [
                gateway.explain("loans", labeling, candidates=pool, top_k=None)
                for labeling in stream
                for _ in range(duplicates)
            ]
            reports.extend(await asyncio.gather(*burst))
        return reports

    start = time.perf_counter()
    gateway_reports = asyncio.run(serve_stream())
    gateway_seconds = time.perf_counter() - start

    expected = [
        naive_reports[labeling.name]
        for _ in range(rounds)
        for labeling in stream
        for _ in range(duplicates)
    ]
    identical = all(
        gateway_report.render(top_k=None) == naive_report.render(top_k=None)
        for gateway_report, naive_report in zip(gateway_reports, expected)
    )
    percentiles = gateway.stats.latency_percentiles()
    service_stats = registry.service("loans").stats

    result = ExperimentResult(
        "E15",
        "Async gateway: warm-coalesced serving vs naive-serialized workers",
        notes=(
            f"loan domain, |D|={len(database)} facts, {len(stream)} distinct "
            f"sessions x {duplicates} concurrent duplicates x {rounds} rounds, "
            f"max_concurrency={max_concurrency}"
        ),
    )
    result.add_row(
        mode="warm_coalesced_vs_naive",
        requests=total_requests,
        candidates=len(pool),
        naive_seconds=round(naive_seconds, 3),
        gateway_seconds=round(gateway_seconds, 3),
        naive_rps=round(total_requests / naive_seconds, 1) if naive_seconds > 0 else None,
        gateway_rps=round(total_requests / gateway_seconds, 1) if gateway_seconds > 0 else None,
        speedup=round(naive_seconds / gateway_seconds, 1) if gateway_seconds > 0 else None,
        identical_rankings=identical,
        coalesced_hits=gateway.stats.coalesced_hits,
        shed_requests=gateway.stats.shed_requests,
        cold_builds=service_stats.cold_builds,
        warm_hits=service_stats.warm_hits,
        queue_depth_high_water=gateway.stats.queue_depth_high_water,
        p50_seconds=round(percentiles["p50"], 4) if percentiles["p50"] else None,
        p99_seconds=round(percentiles["p99"], 4) if percentiles["p99"] else None,
    )

    # -- overload: admission control sheds deterministically ---------------
    shed_row = asyncio.run(_overload_probe(registry, stream, pool))
    result.add_row(**shed_row)

    # -- shipping: a replica boots warm from the serving replica -----------
    ship_row = asyncio.run(
        _shipping_probe(registry, database, stream[0], pool, expected[0])
    )
    result.add_row(**ship_row)

    asyncio.run(gateway.aclose())
    return result


async def _overload_probe(registry: ServiceRegistry, stream, pool) -> dict:
    """One saturated gateway: leader admitted, second request shed."""
    gateway = ExplanationGateway(registry=registry, max_concurrency=1, max_pending=1)
    leader = asyncio.ensure_future(
        gateway.explain("loans", stream[0], candidates=pool, top_k=None)
    )
    await asyncio.sleep(0)  # let the leader occupy the pending slot
    shed = False
    try:
        # top_k=5 forces a distinct coalescing key even on a one-labeling
        # stream: a coalescable duplicate would attach instead of shedding.
        await gateway.explain("loans", stream[-1], candidates=pool, top_k=5)
    except GatewayOverloaded:
        shed = True
    leader_report = await leader
    await gateway.aclose()
    return {
        "mode": "overload_shed",
        "requests": 2,
        "max_pending": 1,
        "shed_requests": gateway.stats.shed_requests,
        "deterministic_shed": shed,
        "leader_completed": leader_report is not None,
    }


async def _shipping_probe(
    registry: ServiceRegistry, database, labeling, pool, donor_report
) -> dict:
    """Donor streams its snapshot; the replica must rank identically."""
    donor_service = registry.service("loans")
    donor = SnapshotDonor(donor_service)
    host, port = await donor.start()
    replica = ExplanationService(_build_system(database), radius=1)
    boot = await boot_from_donor(replica, host, port)
    await donor.close()
    loop = asyncio.get_running_loop()
    replica_report = await loop.run_in_executor(
        None, lambda: replica.explain(labeling, candidates=pool, top_k=None)
    )
    loaded = boot.get("loaded", {})
    return {
        "mode": "snapshot_shipping",
        "warm_boot": boot["warm"],
        "loaded_verdict_rows": loaded.get("verdict_rows", 0),
        "loaded_border_aboxes": loaded.get("border_aboxes", 0),
        "fingerprints_match": boot.get("donor", {}).get("fingerprint")
        == replica.content_fingerprint(),
        "identical_rankings": replica_report.render(top_k=None)
        == donor_report.render(top_k=None),
        "snapshots_shipped": donor.stats.snapshots_shipped,
    }
