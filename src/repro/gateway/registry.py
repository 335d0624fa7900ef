"""Per-tenant registry of lazily built, LRU-bounded explanation services.

A multi-tenant gateway process cannot afford one permanently resident
:class:`~repro.service.ExplanationService` per tenant ever seen — each
service pins a warm OBDM system, bounded caches and live verdict
matrices.  The registry keeps the hot set:

* tenants **register a builder** (``tenant name → OBDMSystem``), not a
  live system, so registration is free and a tenant that never sends
  traffic never costs memory;
* the first request **lazily constructs** the service and keys the live
  instance by its *content fingerprint* — the specification fingerprint
  (ontology + mapping) combined with the database fact fingerprint.
  Tenants whose builders produce byte-identical specifications *and*
  databases therefore share one warm service (the same
  content-addressing argument that makes the evaluation cache shareable:
  equal fingerprints mean equal answers);
* live instances sit in an **LRU ring** (``capacity``): the least
  recently served tenant's service is dropped first, counted into
  ``stats.evictions``.  Eviction costs a rebuild (a cold start, or a
  warm boot when a ``snapshot_path`` was registered), never correctness;
* an optional per-tenant **snapshot path** makes rebuilds boot warm via
  :func:`repro.gateway.shipping.boot_warm` — the fleet-scale-out hook:
  a new replica registers the shipped artifact and its first request
  starts from the donor's memo state.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..engine.cache import CacheLimits, LRUStore
from ..errors import UnknownTenantError
from ..obdm.system import OBDMSystem
from ..service import ExplanationService
from .stats import GatewayStats

SystemBuilder = Callable[[], OBDMSystem]


class _Tenant:
    """Registration record: how to (re)build one tenant's service."""

    __slots__ = ("builder", "radius", "cache_limits", "max_sessions", "snapshot_path", "fingerprint")

    def __init__(
        self,
        builder: SystemBuilder,
        radius: int,
        cache_limits: Optional[CacheLimits],
        max_sessions: int,
        snapshot_path,
    ):
        self.builder = builder
        self.radius = radius
        self.cache_limits = cache_limits
        self.max_sessions = max_sessions
        self.snapshot_path = snapshot_path
        self.fingerprint: Optional[str] = None  # learned on first build


class ServiceRegistry:
    """Lazy, bounded map from tenant names to warm explanation services.

    Parameters
    ----------
    capacity:
        How many live services to keep warm; the least recently served
        is evicted first.  ``None`` keeps every built service resident.
    stats:
        Optional :class:`GatewayStats` to count builds / reuses /
        evictions / boot outcomes into; the gateway passes its own so
        one stats object tells the whole serving story.
    """

    def __init__(self, capacity: Optional[int] = 8, stats: Optional[GatewayStats] = None):
        self.stats = stats if stats is not None else GatewayStats()
        self._tenants: Dict[str, _Tenant] = {}
        self._services = LRUStore(capacity=capacity, stats=self.stats)
        self._guard = threading.Lock()

    # -- registration ------------------------------------------------------

    def register(
        self,
        tenant: str,
        builder: SystemBuilder,
        radius: int = 1,
        cache_limits: Optional[CacheLimits] = None,
        max_sessions: int = 32,
        snapshot_path=None,
    ) -> None:
        """Register (or re-register) a tenant's system builder.

        Re-registering replaces the recipe but deliberately keeps any
        live service until its next build: the fingerprint learned from
        the *new* builder decides whether the old instance is reused.
        """
        with self._guard:
            self._tenants[tenant] = _Tenant(
                builder, radius, cache_limits, max_sessions, snapshot_path
            )

    def tenants(self) -> List[str]:
        with self._guard:
            return sorted(self._tenants)

    def __contains__(self, tenant: str) -> bool:
        with self._guard:
            return tenant in self._tenants

    def __len__(self) -> int:
        return len(self._services)

    # -- resolution --------------------------------------------------------

    def service(self, tenant: str) -> ExplanationService:
        """The warm service of *tenant*, built lazily on first use.

        Raises :class:`~repro.errors.UnknownTenantError` for a tenant
        that was never registered.  Builds run under the registry guard
        (one build at a time keeps two threads from constructing the
        same tenant's substrate twice); the returned service does its
        own internal locking, so serving runs outside the guard.
        """
        with self._guard:
            entry = self._tenants.get(tenant)
            if entry is None:
                raise UnknownTenantError(
                    f"unknown tenant {tenant!r}; registered: {sorted(self._tenants)}"
                )
            if entry.fingerprint is not None:
                service = self._services.get(entry.fingerprint)
                if service is not None:
                    self.stats.count("service_reuses")
                    return service
            service = self._build(entry)
            return service

    def fingerprint(self, tenant: str) -> Optional[str]:
        """The content fingerprint a tenant's service is keyed by.

        ``None`` until the first build (the fingerprint is a property of
        the *built* system, not of the recipe).
        """
        with self._guard:
            entry = self._tenants.get(tenant)
            if entry is None:
                raise UnknownTenantError(f"unknown tenant {tenant!r}")
            return entry.fingerprint

    def _build(self, entry: _Tenant) -> ExplanationService:
        # Caller holds the guard.
        service = ExplanationService(
            entry.builder(),
            radius=entry.radius,
            cache_limits=entry.cache_limits,
            max_sessions=entry.max_sessions,
        )
        entry.fingerprint = service.content_fingerprint()
        existing = self._services.get(entry.fingerprint)
        if existing is not None:
            # Another tenant's builder produced a content-identical
            # specification and database: share its warm instance and
            # let the speculative build be garbage collected.
            self.stats.count("service_reuses")
            return existing
        self.stats.count("service_builds")
        if entry.snapshot_path is not None:
            from .shipping import boot_warm

            boot_warm(service, entry.snapshot_path, stats=self.stats)
        self._services.put(entry.fingerprint, service)
        return service

    def evict(self, tenant: str) -> bool:
        """Drop a tenant's live service (if any); the recipe stays.

        Returns whether a live instance was actually dropped.  Used by
        operators to force the next request through a (possibly
        snapshot-warmed) rebuild.
        """
        with self._guard:
            entry = self._tenants.get(tenant)
            if entry is None or entry.fingerprint is None:
                return False
            dropped = self._services.get(entry.fingerprint, touch=False) is not None
            self._services.discard_where(lambda key, _v: key == entry.fingerprint)
            return dropped

    def __str__(self):
        return (
            f"ServiceRegistry(tenants={len(self._tenants)}, "
            f"live={len(self._services)}, capacity={self._services.capacity})"
        )
