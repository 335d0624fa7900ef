"""Snapshot-lifecycle regressions: atomic save, corrupt-load refusal, shipping.

Pins the two bugfixes the gateway's fleet story depends on:

* an interrupted :meth:`EvaluationCache.save` can never leave a
  truncated snapshot at the published path (the dump goes to a
  same-directory temp file and is ``os.replace``\\ d into place);
* a truncated / garbage / foreign-class artifact can never crash
  :meth:`EvaluationCache.load` — every unpickling failure becomes the
  same ``ValueError`` refusal as a fingerprint mismatch, which
  :func:`repro.gateway.shipping.boot_warm` degrades to a cold start.

Plus the end-to-end shipping contract: a replica booted from a donor's
streamed snapshot ranks identically to the donor, across all four
domain ontologies.
"""

from __future__ import annotations

import asyncio
import os
import pickle

import pytest

from repro.errors import GatewayError
from repro.gateway import GatewayStats, SnapshotDonor, boot_from_donor, boot_warm, fetch_snapshot
from repro.ontologies.university import build_university_labeling, build_university_system
from repro.service import ExplanationService
from repro.workloads.probes import PROBE_DOMAINS, build_probe_system, probe_labeling, probe_pool

pytestmark = pytest.mark.gateway


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture()
def warm_service():
    service = ExplanationService(build_university_system())
    service.explain(build_university_labeling())
    return service


class SimulatedCrash(BaseException):
    """Raised mid-dump to model a writer killed while snapshotting."""


# -- atomic save --------------------------------------------------------------


class TestAtomicSave:
    def test_interrupted_save_preserves_the_previous_snapshot(
        self, warm_service, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.snapshot"
        warm_service.save(path)
        published = path.read_bytes()

        def dying_dump(state, stream, *args, **kwargs):
            stream.write(b"partial snapshot bytes, then the process dies")
            raise SimulatedCrash()

        monkeypatch.setattr(pickle, "dump", dying_dump)
        with pytest.raises(SimulatedCrash):
            warm_service.save(path)
        assert path.read_bytes() == published, (
            "a crash mid-dump must never touch the published snapshot"
        )

    def test_interrupted_first_save_publishes_nothing(
        self, warm_service, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.snapshot"

        def dying_dump(state, stream, *args, **kwargs):
            stream.write(b"partial")
            raise SimulatedCrash()

        monkeypatch.setattr(pickle, "dump", dying_dump)
        with pytest.raises(SimulatedCrash):
            warm_service.save(path)
        assert not path.exists(), "no snapshot existed, none may appear"

    def test_interrupted_save_leaves_no_temp_litter(
        self, warm_service, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.snapshot"

        def dying_dump(state, stream, *args, **kwargs):
            raise SimulatedCrash()

        monkeypatch.setattr(pickle, "dump", dying_dump)
        with pytest.raises(SimulatedCrash):
            warm_service.save(path)
        assert os.listdir(tmp_path) == [], "the partial temp file must be removed"

    def test_surviving_snapshot_still_loads(self, warm_service, tmp_path, monkeypatch):
        path = tmp_path / "cache.snapshot"
        warm_service.save(path)

        def dying_dump(state, stream, *args, **kwargs):
            stream.write(b"garbage")
            raise SimulatedCrash()

        monkeypatch.setattr(pickle, "dump", dying_dump)
        with pytest.raises(SimulatedCrash):
            warm_service.save(path)
        monkeypatch.undo()
        replica = ExplanationService(build_university_system())
        loaded = replica.load(path)
        assert loaded["verdict_rows"] > 0

    def test_save_replaces_existing_snapshot_in_place(self, warm_service, tmp_path):
        path = tmp_path / "cache.snapshot"
        warm_service.save(path)
        first = path.read_bytes()
        warm_service.explain(build_university_labeling(), radius=0)
        warm_service.save(path)
        assert path.read_bytes() != first, "the refreshed snapshot must be published"
        assert [entry for entry in os.listdir(tmp_path) if entry != "cache.snapshot"] == []


# -- corrupt-snapshot refusal -------------------------------------------------


class TestCorruptLoadRefusal:
    def refusal(self, tmp_path, payload: bytes):
        path = tmp_path / "bad.snapshot"
        path.write_bytes(payload)
        replica = ExplanationService(build_university_system())
        with pytest.raises(ValueError):
            replica.load(path)
        return replica

    def test_truncated_snapshot_refused(self, warm_service, tmp_path):
        path = tmp_path / "cache.snapshot"
        warm_service.save(path)
        whole = path.read_bytes()
        for cut in (1, len(whole) // 2, len(whole) - 1):
            self.refusal(tmp_path, whole[:cut])

    def test_empty_file_refused(self, tmp_path):
        self.refusal(tmp_path, b"")

    def test_garbage_bytes_refused(self, tmp_path):
        self.refusal(tmp_path, b"this is not a pickle at all \x00\x01\x02")

    def test_foreign_class_pickle_refused(self, tmp_path):
        # Protocol-0 GLOBAL opcode naming an attribute `os` does not
        # have: unpickling raises AttributeError, which must surface as
        # the ValueError refusal, not escape raw.
        self.refusal(tmp_path, b"cos\nnonexistent_attribute_xyz\n.")

    def test_foreign_module_pickle_refused(self, tmp_path):
        self.refusal(tmp_path, b"cnonexistent_module_xyz\nNope\n.")

    def test_wrong_object_pickle_refused(self, tmp_path):
        self.refusal(tmp_path, pickle.dumps([1, 2, 3]))

    def test_refused_replica_degrades_to_cold_start(self, warm_service, tmp_path):
        path = tmp_path / "cache.snapshot"
        warm_service.save(path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        replica = ExplanationService(build_university_system())
        stats = GatewayStats()
        result = boot_warm(replica, path, stats=stats)
        assert result["warm"] is False
        assert stats.cold_boots == 1
        # Cold but alive: the replica still answers correctly.
        labeling = build_university_labeling()
        direct = ExplanationService(build_university_system()).explain(labeling)
        assert replica.explain(labeling).render() == direct.render()

    def test_boot_warm_tolerates_a_missing_artifact(self, tmp_path):
        replica = ExplanationService(build_university_system())
        result = boot_warm(replica, tmp_path / "never_shipped.snapshot")
        assert result["warm"] is False
        assert "FileNotFoundError" in result["reason"]


# -- snapshot shipping --------------------------------------------------------


@pytest.mark.parametrize("domain", PROBE_DOMAINS)
def test_shipped_boot_ranks_identically_to_the_donor(domain):
    donor_system = build_probe_system(domain)
    labeling = probe_labeling(donor_system)
    pool = probe_pool(donor_system)
    donor_service = ExplanationService(donor_system)
    donor_report = donor_service.explain(labeling, candidates=pool, top_k=None)

    async def ship():
        donor = SnapshotDonor(donor_service)
        host, port = await donor.start()
        replica = ExplanationService(build_probe_system(domain))
        boot = await boot_from_donor(replica, host, port)
        await donor.close()
        return donor, replica, boot

    donor, replica, boot = run(ship())
    assert boot["warm"] is True
    assert boot["donor"]["fingerprint"] == replica.content_fingerprint()
    assert donor.stats.snapshots_shipped == 1
    replica_report = replica.explain(labeling, candidates=pool, top_k=None)
    assert replica_report.render(top_k=None) == donor_report.render(top_k=None)
    assert replica.cache_stats.verdict_row_hits > 0, (
        "the shipped verdict rows must actually serve the replica's request"
    )


def test_fetch_refuses_a_peer_with_the_wrong_protocol(tmp_path):
    async def scenario():
        async def http_impersonator(reader, writer):
            await reader.readline()
            writer.write(b"HTTP/1.1 200 OK\r\n\r\nhello")
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(http_impersonator, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        destination = tmp_path / "fetched.snapshot"
        with pytest.raises(GatewayError):
            await fetch_snapshot(host, port, destination)
        server.close()
        await server.wait_closed()
        assert not destination.exists(), "a refused fetch must write nothing"

    run(scenario())


def test_boot_from_unreachable_donor_degrades_to_cold(tmp_path):
    async def scenario():
        # Bind-then-close guarantees a dead port.
        server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        server.close()
        await server.wait_closed()
        replica = ExplanationService(build_university_system())
        stats = GatewayStats()
        result = await boot_from_donor(replica, host, port, stats=stats)
        assert result["warm"] is False
        assert stats.cold_boots == 1

    run(scenario())


def test_registry_snapshot_path_boots_rebuilds_warm(tmp_path):
    from repro.gateway import ServiceRegistry

    donor = ExplanationService(build_university_system())
    donor.explain(build_university_labeling())
    path = tmp_path / "uni.snapshot"
    donor.save(path)

    registry = ServiceRegistry()
    registry.register("uni", build_university_system, snapshot_path=path)
    service = registry.service("uni")
    assert registry.stats.warm_boots == 1
    service.explain(build_university_labeling())
    assert service.cache_stats.verdict_row_hits > 0, (
        "a snapshot-registered tenant must boot warm on (re)build"
    )
