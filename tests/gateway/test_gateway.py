"""Concurrency suite for the async explanation gateway.

The contract: multiplexing only changes who pays, never the report.
Coalesced, queued, timed-out-and-retried and registry-rebuilt requests
must all produce exactly what a direct
:class:`~repro.service.ExplanationService` call would — and the
admission-control / cancellation machinery must be deterministic, not
racy-by-luck.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import GatewayOverloaded, GatewayTimeout, UnknownTenantError
from repro.gateway import ExplanationGateway, GatewayStats, ServiceRegistry
from repro.ontologies.loans import build_loan_system
from repro.ontologies.university import build_university_labeling, build_university_system
from repro.service import ExplanationService
from repro.workloads.probes import PROBE_DOMAINS, build_probe_system, probe_labeling, probe_pool

pytestmark = pytest.mark.gateway


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture()
def labeling():
    return build_university_labeling()


def university_gateway(**kwargs) -> ExplanationGateway:
    registry = ServiceRegistry()
    registry.register("uni", build_university_system)
    return ExplanationGateway(registry=registry, **kwargs)


class _GatedExplain:
    """Monkeypatch hook: explain() blocks until the test releases it.

    Lets tests hold an evaluation in flight deterministically — to
    attach followers, cancel them, or saturate admission control —
    instead of racing a real evaluation's wall-clock.
    """

    def __init__(self, monkeypatch):
        self.release = threading.Event()
        self.calls = 0
        original = ExplanationService.explain
        gate = self

        def gated(service, *args, **kwargs):
            gate.calls += 1
            assert gate.release.wait(timeout=30), "test never released the gate"
            return original(service, *args, **kwargs)

        monkeypatch.setattr(ExplanationService, "explain", gated)


# -- coalescing ---------------------------------------------------------------


def test_concurrent_identical_requests_coalesce_to_one_evaluation(labeling):
    gateway = university_gateway(max_concurrency=2, max_pending=16)

    async def burst():
        reports = await asyncio.gather(*(gateway.explain("uni", labeling) for _ in range(8)))
        await gateway.aclose()
        return reports

    reports = run(burst())
    service = gateway.registry.service("uni")
    assert service.stats.requests == 1, "coalescing must collapse 8 requests into 1"
    assert service.stats.cold_builds == 1
    assert gateway.stats.coalesced_hits == 7
    assert gateway.stats.requests == 8
    assert len({report.render() for report in reports}) == 1


def test_coalescing_is_deterministic_under_a_held_evaluation(labeling, monkeypatch):
    gate = _GatedExplain(monkeypatch)
    gateway = university_gateway(max_concurrency=1, max_pending=4)

    async def scenario():
        leader = asyncio.ensure_future(gateway.explain("uni", labeling))
        await asyncio.sleep(0)  # leader admitted, evaluation held by the gate
        followers = [asyncio.ensure_future(gateway.explain("uni", labeling)) for _ in range(3)]
        await asyncio.sleep(0)  # followers attached to the in-flight entry
        assert gateway.stats.coalesced_hits == 3
        assert len(gateway.inflight_keys()) == 1
        gate.release.set()
        reports = await asyncio.gather(leader, *followers)
        await gateway.aclose()
        return reports

    reports = run(scenario())
    assert gate.calls == 1, "the held evaluation must have run exactly once"
    assert len({report.render() for report in reports}) == 1


def test_different_options_do_not_coalesce(labeling):
    gateway = university_gateway(max_concurrency=2, max_pending=16)

    async def burst():
        full, top1 = await asyncio.gather(
            gateway.explain("uni", labeling, top_k=None),
            gateway.explain("uni", labeling, top_k=1),
        )
        await gateway.aclose()
        return full, top1

    full, top1 = run(burst())
    assert gateway.stats.coalesced_hits == 0
    assert len(full) > len(top1)


def test_gateway_report_identical_to_direct_service(labeling):
    direct = ExplanationService(build_university_system()).explain(labeling)
    gateway = university_gateway()

    async def one():
        report = await gateway.explain("uni", labeling)
        await gateway.aclose()
        return report

    assert run(one()).render() == direct.render()


@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_coalesced_serving_identical_across_domains(domain):
    system = build_probe_system(domain)
    labeling = probe_labeling(system)
    pool = probe_pool(system)
    direct = ExplanationService(build_probe_system(domain)).explain(
        labeling, candidates=pool, top_k=None
    )
    registry = ServiceRegistry()
    registry.register(domain, lambda: build_probe_system(domain))
    gateway = ExplanationGateway(registry=registry, max_concurrency=2)

    async def burst():
        reports = await asyncio.gather(
            *(gateway.explain(domain, labeling, candidates=pool, top_k=None) for _ in range(4))
        )
        await gateway.aclose()
        return reports

    for report in run(burst()):
        assert report.render(top_k=None) == direct.render(top_k=None)


# -- cancellation and timeouts ------------------------------------------------


def test_cancelled_follower_leaves_the_session_usable(labeling, monkeypatch):
    gate = _GatedExplain(monkeypatch)
    gateway = university_gateway(max_concurrency=1, max_pending=4)

    async def scenario():
        leader = asyncio.ensure_future(gateway.explain("uni", labeling))
        await asyncio.sleep(0)
        follower = asyncio.ensure_future(gateway.explain("uni", labeling))
        await asyncio.sleep(0)
        follower.cancel()
        gate.release.set()
        leader_report = await leader
        with pytest.raises(asyncio.CancelledError):
            await follower
        # The session the leader built serves the next request warm.
        retry = await gateway.explain("uni", labeling)
        await gateway.aclose()
        return leader_report, retry

    leader_report, retry = run(scenario())
    assert gateway.stats.cancelled == 1
    assert retry.render() == leader_report.render()
    service = gateway.registry.service("uni")
    assert service.stats.warm_hits >= 1, "the retry should hit the fully built session"


def test_cancelling_every_waiter_still_completes_the_evaluation(labeling, monkeypatch):
    gate = _GatedExplain(monkeypatch)
    gateway = university_gateway(max_concurrency=1, max_pending=4)

    async def scenario():
        request = asyncio.ensure_future(gateway.explain("uni", labeling))
        await asyncio.sleep(0)
        request.cancel()
        gate.release.set()
        with pytest.raises(asyncio.CancelledError):
            await request
        await gateway.drain()  # the shielded leader keeps running
        retry = await gateway.explain("uni", labeling)
        await gateway.aclose()
        return retry

    retry = run(scenario())
    assert gate.calls == 2, "the abandoned evaluation plus the retry"
    service = gateway.registry.service("uni")
    assert service.stats.warm_hits >= 1, "the abandoned leader fully built the session"
    assert retry.render() == ExplanationService(build_university_system()).explain(labeling).render()


def test_timeout_raises_gateway_timeout_and_work_survives(labeling, monkeypatch):
    gate = _GatedExplain(monkeypatch)
    gateway = university_gateway(max_concurrency=1, max_pending=4)

    async def scenario():
        with pytest.raises(GatewayTimeout):
            await gateway.explain("uni", labeling, timeout=0.05)
        gate.release.set()
        await gateway.drain()
        retry = await gateway.explain("uni", labeling)
        await gateway.aclose()
        return retry

    retry = run(scenario())
    assert gateway.stats.timeouts == 1
    assert retry.render() == ExplanationService(build_university_system()).explain(labeling).render()


# -- admission control --------------------------------------------------------


def test_overload_sheds_deterministically(labeling, monkeypatch):
    gate = _GatedExplain(monkeypatch)
    gateway = university_gateway(max_concurrency=1, max_pending=1)

    async def scenario():
        leader = asyncio.ensure_future(gateway.explain("uni", labeling))
        await asyncio.sleep(0)  # leader occupies the single pending slot
        with pytest.raises(GatewayOverloaded):
            await gateway.explain("uni", labeling, top_k=3)  # distinct key
        coalesced = asyncio.ensure_future(gateway.explain("uni", labeling))
        await asyncio.sleep(0)  # identical key: attaches, never shed
        gate.release.set()
        reports = await asyncio.gather(leader, coalesced)
        await gateway.aclose()
        return reports

    reports = run(scenario())
    assert gateway.stats.shed_requests == 1
    assert gateway.stats.coalesced_hits == 1
    assert gateway.stats.queue_depth_high_water == 1
    assert reports[0].render() == reports[1].render()


def test_shed_error_is_status_503():
    assert GatewayOverloaded.status == 503
    assert GatewayTimeout.status == 504


def test_unknown_tenant_error_reaches_the_awaiter(labeling):
    gateway = university_gateway()

    async def scenario():
        with pytest.raises(UnknownTenantError):
            await gateway.explain("nobody", labeling)
        await gateway.aclose()

    run(scenario())
    assert gateway.stats.errors == 1


# -- the registry -------------------------------------------------------------


class TestServiceRegistry:
    def test_lazy_construction(self):
        registry = ServiceRegistry()
        registry.register("uni", build_university_system)
        assert len(registry) == 0, "registration must not build anything"
        service = registry.service("uni")
        assert len(registry) == 1
        assert registry.stats.service_builds == 1
        assert registry.service("uni") is service
        assert registry.stats.service_reuses == 1

    def test_fingerprint_learned_on_first_build(self):
        registry = ServiceRegistry()
        registry.register("uni", build_university_system)
        assert registry.fingerprint("uni") is None
        service = registry.service("uni")
        assert registry.fingerprint("uni") == service.content_fingerprint()

    def test_content_identical_tenants_share_one_instance(self):
        registry = ServiceRegistry()
        registry.register("a", build_university_system)
        registry.register("b", build_university_system)
        assert registry.service("a") is registry.service("b")
        assert len(registry) == 1

    def test_lru_bounding_evicts_and_rebuilds(self):
        registry = ServiceRegistry(capacity=1)
        registry.register("uni", build_university_system)
        registry.register("loans", build_loan_system)
        first = registry.service("uni")
        registry.service("loans")  # evicts uni
        assert registry.stats.evictions == 1
        assert len(registry) == 1
        rebuilt = registry.service("uni")
        assert rebuilt is not first
        assert registry.stats.service_builds == 3

    def test_explicit_evict(self):
        registry = ServiceRegistry()
        registry.register("uni", build_university_system)
        assert registry.evict("uni") is False, "nothing live yet"
        registry.service("uni")
        assert registry.evict("uni") is True
        assert len(registry) == 0

    def test_unknown_tenant(self):
        registry = ServiceRegistry()
        with pytest.raises(UnknownTenantError):
            registry.service("ghost")
        with pytest.raises(UnknownTenantError):
            registry.fingerprint("ghost")


# -- stats: thread-safety and percentiles -------------------------------------


def test_service_stats_survive_many_concurrent_explainers(labeling):
    """Regression: concurrent explain() callers must never lose increments.

    12 threads × 5 requests against one service; the request counter and
    its outcome counters are bumped atomically as a group, so the totals
    must reconcile exactly.
    """
    service = ExplanationService(build_university_system())
    threads, per_thread = 12, 5

    def client():
        for _ in range(per_thread):
            service.explain(labeling)

    with ThreadPoolExecutor(max_workers=threads) as executor:
        for future in [executor.submit(client) for _ in range(threads)]:
            future.result()

    stats = service.stats
    total = threads * per_thread
    assert stats.requests == total
    assert stats.warm_hits + stats.drift_updates + stats.cold_builds == total


def test_evaluator_is_one_instance_across_threads():
    service = ExplanationService(build_university_system())
    with ThreadPoolExecutor(max_workers=16) as executor:
        evaluators = [
            future.result()
            for future in [executor.submit(service.evaluator, 1) for _ in range(64)]
        ]
    assert len({id(evaluator) for evaluator in evaluators}) == 1


def test_multi_counter_count_is_atomic_under_contention():
    stats = GatewayStats()

    def bump():
        for _ in range(1000):
            stats.count("requests", "completed")

    workers = [threading.Thread(target=bump) for _ in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert stats.requests == 8000
    assert stats.completed == 8000


def test_latency_percentiles_nearest_rank():
    stats = GatewayStats()
    assert stats.latency_percentiles() == {"p50": None, "p99": None, "samples": 0}
    for value in range(1, 101):
        stats.observe_latency(float(value))
    percentiles = stats.latency_percentiles()
    assert percentiles["p50"] == 50.0
    assert percentiles["p99"] == 99.0
    assert percentiles["samples"] == 100


def test_queue_depth_high_water_is_monotone():
    stats = GatewayStats()
    for depth in (1, 3, 2):
        stats.observe_queue_depth(depth)
    assert stats.queue_depth_high_water == 3
    report = stats.as_dict()
    assert report["queue_depth_high_water"] == 3
    assert "latency_p99" in report
