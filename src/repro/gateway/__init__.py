"""``repro.gateway`` — the async serving front end over warm explanation services.

The engine stack below (cache → bitset verdicts → batch kernel →
database drift) makes one :class:`~repro.service.ExplanationService`
fast; this package makes a *process* of them servable: one
:class:`~repro.gateway.gateway.ExplanationGateway` multiplexes many
specifications and tenants behind an asyncio surface, in four layers:

**Registry** (:mod:`repro.gateway.registry`)
    A :class:`~repro.gateway.registry.ServiceRegistry` maps tenant
    names to *builders* and lazily constructs the live
    ``ExplanationService`` on first traffic, keyed by content
    fingerprint (specification + database) and LRU-bounded so the hot
    tenant set stays warm and the cold one costs nothing.  Tenants with
    byte-identical content share one instance.

**Coalescing** (:mod:`repro.gateway.gateway`)
    Concurrent ``explain`` calls with the same ``(tenant, labeling
    signature, radius)`` — and identical option overrides — await one
    in-flight future instead of racing the service's session guard: N
    identical requests cost one evaluation.  Per-request timeouts and
    cancellation are shielded from the shared evaluation, so a session
    is never left half-built; the work completes and serves the next
    request warm.

**Backpressure** (:mod:`repro.gateway.gateway`)
    A bounded pending set plus a concurrency semaphore: when admission
    is saturated, new requests fast-fail with
    :class:`~repro.errors.GatewayOverloaded` (503-style) instead of
    queueing unboundedly.  :class:`~repro.gateway.stats.GatewayStats`
    counts coalesced hits, shed requests, the queue-depth high-water
    mark and serves p50/p99 latency percentiles from a bounded
    reservoir.

**Shipping** (:mod:`repro.gateway.shipping`)
    A new replica boots *warm* from another replica's
    ``EvaluationCache.save()`` artifact — by file handoff
    (:func:`~repro.gateway.shipping.boot_warm`) or over a simple
    asyncio stream (:class:`~repro.gateway.shipping.SnapshotDonor` /
    :func:`~repro.gateway.shipping.boot_from_donor`).  Snapshots are
    written and downloaded atomically (temp file + ``os.replace``) and
    corrupt or foreign artifacts degrade to a cold start, never a
    crash.

The gateway adds *no* evaluation semantics of its own: every request is
served by :meth:`ExplanationService.explain` on a worker thread, so
the ``engine.cache`` / ``engine.verdicts`` switches flip the substrate
under the gateway exactly as they do under direct service use, and the
differential suites' identity guarantees carry over verbatim.
Multiplexing only changes who pays, never the report (pinned across
all four domains in ``tests/gateway/``).

Quickstart: ``examples/gateway_serving.py``; benchmark gate:
``benchmarks/bench_gateway.py`` (≥3× warm-coalesced vs
naive-serialized serving, identical rankings).
"""

from __future__ import annotations

from ..errors import GatewayError, GatewayOverloaded, GatewayTimeout, UnknownTenantError
from .gateway import ExplanationGateway
from .registry import ServiceRegistry
from .shipping import SnapshotDonor, boot_from_donor, boot_warm, fetch_snapshot
from .stats import GatewayStats

__all__ = [
    "ExplanationGateway",
    "ServiceRegistry",
    "GatewayStats",
    "SnapshotDonor",
    "boot_from_donor",
    "boot_warm",
    "fetch_snapshot",
    "GatewayError",
    "GatewayOverloaded",
    "GatewayTimeout",
    "UnknownTenantError",
]
