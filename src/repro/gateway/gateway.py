"""The asyncio explanation gateway: coalescing, admission control, timeouts.

One :class:`ExplanationGateway` multiplexes many tenants' ``explain``
traffic over one process.  The event loop owns all bookkeeping (the
in-flight table and the pending counter are only touched from loop
callbacks, so they need no locks); the actual evaluations run in a
bounded thread pool, where the engine substrate below is already
thread-safe (locked caches, the service's session guard).

Request lifecycle
-----------------

1. **Admission.**  A request that cannot attach to in-flight work must
   be *admitted*: if the pending set (admitted but unfinished leader
   evaluations) is at ``max_pending``, the request is shed immediately
   with :class:`~repro.errors.GatewayOverloaded` — the 503-style
   fast-fail that lets a load balancer retry elsewhere instead of
   queueing unboundedly.  Admitted leaders then queue on a semaphore
   bounding *concurrent* evaluations at ``max_concurrency``.

2. **Coalescing.**  Requests are keyed by
   ``(tenant, labeling name, labeling signature, radius, options)``.
   A request whose key is already being evaluated becomes a *follower*:
   it awaits the leader's future instead of racing the service's
   session guard, so N concurrent identical requests cost one
   evaluation (``stats.coalesced_hits`` counts the other N−1) — the
   same share-the-work discipline the engine's subquery tabling applies
   inside one evaluation, lifted to whole requests.

3. **Timeout / cancellation.**  Each awaiter wraps the shared future in
   :func:`asyncio.shield`: cancelling one follower (or timing out) can
   never cancel the leader's evaluation, so a session is never left
   half-built — the work completes, warms the cache, and the next
   request for that key is a warm hit.  Timeouts raise
   :class:`~repro.errors.GatewayTimeout` (504-style).

4. **Accounting.**  Completion latency (admission → result) feeds the
   stats reservoir; :meth:`GatewayStats.latency_percentiles` serves the
   p50/p99 the benchmark gates.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, Optional, Tuple

from ..core.labeling import Labeling
from ..core.report import ExplanationReport
from ..errors import GatewayOverloaded, GatewayTimeout
from .registry import ServiceRegistry
from .stats import GatewayStats

_UNSET = object()


def _options_token(options: Dict[str, object]) -> Tuple:
    """A hashable, content-reflecting key for the explain() overrides.

    Two requests may only share an evaluation when *every* override
    (criteria, expression, strategy, candidate list, top_k, …) agrees;
    the canonical ``repr`` of each value reflects its content for all
    the library's option types.  Differing tokens merely skip
    coalescing — never correctness.
    """
    return tuple(sorted((name, repr(value)) for name, value in options.items()))


class _InFlight:
    """One leader evaluation plus the count of requests awaiting it."""

    __slots__ = ("task", "waiters")

    def __init__(self, task: "asyncio.Task"):
        self.task = task
        self.waiters = 0


class ExplanationGateway:
    """Async front end multiplexing tenants over warm explanation services.

    Parameters
    ----------
    registry:
        The :class:`~repro.gateway.registry.ServiceRegistry` resolving
        tenant names to warm services; a fresh bounded registry sharing
        this gateway's stats is created when omitted.
    max_concurrency:
        Evaluations running simultaneously in the worker pool.
    max_pending:
        Admitted-but-unfinished leader evaluations before new
        (non-coalescable) requests are shed with ``GatewayOverloaded``.
    default_timeout:
        Per-request timeout in seconds applied when ``explain`` is not
        given an explicit one (``None`` = wait indefinitely).
    """

    def __init__(
        self,
        registry: Optional[ServiceRegistry] = None,
        max_concurrency: int = 4,
        max_pending: int = 64,
        default_timeout: Optional[float] = None,
    ):
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        # One stats object tells the whole serving story: when a
        # registry is supplied the gateway adopts its stats, so request
        # counters and registry lifecycle counters land in one place.
        if registry is None:
            self.stats = GatewayStats()
            self.registry = ServiceRegistry(stats=self.stats)
        else:
            self.registry = registry
            self.stats = registry.stats
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="gateway"
        )
        self._inflight: Dict[Tuple, _InFlight] = {}
        self._pending = 0
        self._closed = False

    # -- the request path --------------------------------------------------

    async def explain(
        self,
        tenant: str,
        labeling: Labeling,
        radius: Optional[int] = None,
        timeout=_UNSET,
        **options,
    ) -> ExplanationReport:
        """One explanation request, coalesced with identical in-flight ones.

        Semantically identical to
        :meth:`~repro.service.ExplanationService.explain` with the same
        arguments on the tenant's service — multiplexing only changes
        who pays, never the report.  Raises ``GatewayOverloaded`` when
        shed, ``GatewayTimeout`` when *timeout* (default: the gateway's
        ``default_timeout``) elapses first, and re-raises evaluation
        errors to every coalesced awaiter.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        timeout = self.default_timeout if timeout is _UNSET else timeout
        loop = asyncio.get_running_loop()
        started = loop.time()
        self.stats.count("requests")
        key = (tenant, labeling.name, labeling.signature(), radius, _options_token(options))
        entry = self._inflight.get(key)
        if entry is None:
            if self._pending >= self.max_pending:
                self.stats.count("shed_requests")
                raise GatewayOverloaded(
                    f"gateway saturated ({self._pending} pending evaluations, "
                    f"max_pending={self.max_pending}); request shed"
                )
            self._pending += 1
            self.stats.observe_queue_depth(self._pending)
            task = asyncio.ensure_future(
                self._evaluate(key, tenant, labeling, radius, options)
            )
            # A leader whose awaiters all timed out or were cancelled
            # still runs to completion (that is the point of the
            # shield); retrieve its outcome so an orphaned failure is
            # counted instead of warning about a never-retrieved
            # exception at garbage-collection time.
            task.add_done_callback(_swallow_orphaned_result)
            entry = self._inflight[key] = _InFlight(task)
        else:
            self.stats.count("coalesced_hits")
        entry.waiters += 1
        try:
            if timeout is None:
                report = await asyncio.shield(entry.task)
            else:
                report = await asyncio.wait_for(asyncio.shield(entry.task), timeout)
            # Awaiter-side latency: admission (or coalesce attach) to
            # result, the number a client actually experiences —
            # followers included, queueing included.
            self.stats.observe_latency(loop.time() - started)
            return report
        except asyncio.TimeoutError:
            self.stats.count("timeouts")
            raise GatewayTimeout(
                f"request for tenant {tenant!r} timed out after {timeout}s; "
                "the evaluation continues and will serve later requests warm"
            ) from None
        except asyncio.CancelledError:
            self.stats.count("cancelled")
            raise
        finally:
            entry.waiters -= 1

    async def _evaluate(self, key, tenant, labeling, radius, options):
        """The leader body: admission queue → worker thread → accounting."""
        loop = asyncio.get_running_loop()
        try:
            async with self._semaphore:
                report = await loop.run_in_executor(
                    self._executor,
                    partial(self._serve, tenant, labeling, radius, options),
                )
            self.stats.count("completed")
            return report
        except Exception:
            self.stats.count("errors")
            raise
        finally:
            self._pending -= 1
            self._inflight.pop(key, None)

    def _serve(self, tenant, labeling, radius, options) -> ExplanationReport:
        """Worker-thread body: resolve the tenant's service and explain.

        Lazy service construction happens here too, so a tenant's first
        (cold) build consumes a worker slot instead of blocking the
        event loop.
        """
        service = self.registry.service(tenant)
        return service.explain(labeling, radius=radius, **options)

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Admitted-but-unfinished leader evaluations right now."""
        return self._pending

    def inflight_keys(self) -> Tuple[Tuple, ...]:
        return tuple(self._inflight)

    def stats_report(self) -> Dict[str, object]:
        """One dict telling the serving story: counters + percentiles."""
        report = self.stats.as_dict()
        report["pending"] = self._pending
        report["inflight"] = len(self._inflight)
        return report

    # -- lifecycle ---------------------------------------------------------

    async def drain(self) -> None:
        """Wait for every in-flight evaluation to finish (errors included)."""
        tasks = [entry.task for entry in self._inflight.values()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def aclose(self) -> None:
        """Drain in-flight work and release the worker pool."""
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)

    def __str__(self):
        return (
            f"ExplanationGateway(pending={self._pending}, "
            f"inflight={len(self._inflight)}, max_pending={self.max_pending}, "
            f"registry={self.registry})"
        )


def _swallow_orphaned_result(task: "asyncio.Task") -> None:
    if not task.cancelled():
        task.exception()  # mark retrieved; awaiters re-raise it themselves
