"""Tests for the long-lived explanation service (repro.service).

The contract: a resident service must answer every request exactly as a
fresh :class:`OntologyExplainer` over a fresh system would — warmth,
drift absorption, session eviction, cache eviction and snapshot
restarts may only change speed, never reports.
"""

from __future__ import annotations

import pytest

from repro.core.explainer import OntologyExplainer
from repro.core.labeling import Labeling
from repro.engine import CacheLimits
from repro.obdm.system import OBDMSystem
from repro.ontologies.university import (
    build_university_labeling,
    build_university_system,
    example_queries,
)
from repro.service import ExplanationService

pytestmark = pytest.mark.service


@pytest.fixture()
def service():
    return ExplanationService(build_university_system())


@pytest.fixture()
def labeling():
    return build_university_labeling()


def _reference_report(labeling, **kwargs):
    """What a stateless deployment would answer (fresh system per call)."""
    return OntologyExplainer(build_university_system()).explain(labeling, **kwargs)


def _drifted(labeling, name=None):
    """Flip one positive to negative (same name: the drift trigger)."""
    moved = sorted(labeling.positives, key=repr)[0]
    return Labeling(
        positives=[t for t in labeling.positives if t != moved],
        negatives=list(labeling.negatives) + [moved],
        name=name if name is not None else labeling.name,
    )


class TestRequestPath:
    def test_cold_request_matches_stateless_explainer(self, service, labeling):
        assert service.explain(labeling).render() == _reference_report(labeling).render()
        assert service.stats.cold_builds == 1

    def test_second_request_is_a_warm_hit_and_identical(self, service, labeling):
        first = service.explain(labeling)
        second = service.explain(labeling)
        assert first.render() == second.render()
        assert service.stats.warm_hits == 1
        # The warm request must not recompute verdict rows.
        assert service.cache_stats.verdict_row_hits > 0

    def test_renamed_identical_content_is_still_warm(self, service, labeling):
        service.explain(labeling)
        renamed = Labeling(labeling.positives, labeling.negatives, name="other_name")
        report = service.explain(renamed)
        assert service.stats.warm_hits == 1
        assert report.best is not None

    def test_explicit_candidates_are_supported(self, service, labeling):
        queries = list(example_queries().values())
        report = service.explain(labeling, candidates=queries, top_k=None)
        reference = _reference_report(labeling, candidates=queries, top_k=None)
        assert report.render(top_k=None) == reference.render(top_k=None)

    def test_criteria_override_reuses_the_warm_matrix(self, service, labeling):
        from repro.core.scoring import balanced_expression

        service.explain(labeling)
        rows_before = service.cache_stats.verdict_row_misses
        report = service.explain(
            labeling, criteria=("delta1", "delta4"), expression=balanced_expression()
        )
        assert service.cache_stats.verdict_row_misses == rows_before
        reference = _reference_report(
            labeling, criteria=("delta1", "delta4"), expression=balanced_expression()
        )
        assert report.render() == reference.render()


class TestDrift:
    def test_drift_is_applied_incrementally_and_identically(self, service, labeling):
        service.explain(labeling)
        drifted = _drifted(labeling)
        assert service.drift_of(drifted) is not None
        report = service.explain(drifted)
        assert service.stats.drift_updates == 1
        assert report.render() == _reference_report(drifted).render()

    def test_drift_preview_is_none_for_warm_or_unknown(self, service, labeling):
        assert service.drift_of(labeling) is None  # unknown: would build cold
        service.explain(labeling)
        assert service.drift_of(labeling) is None  # warm: exact signature hit

    def test_drift_preview_agrees_under_tight_caps(self, labeling):
        # Evicting the verdict store's queries and columns never retires
        # a session: the preview and explain() agree on drift, then on
        # a warm hit, whatever the store holds.
        service = ExplanationService(
            build_university_system(),
            cache_limits=CacheLimits(verdict_queries=1, border_aboxes=1),
        )
        drifted = _drifted(labeling)
        service.explain(labeling)
        preview = service.drift_of(drifted)
        assert preview is not None and not preview.is_empty()
        report = service.explain(drifted)
        assert service.stats.drift_updates == 1
        assert report.render() == _reference_report(drifted).render()
        assert service.drift_of(labeling) is None and service.drift_of(drifted) is None
        service.explain(labeling)
        assert service.stats.warm_hits == 1
        assert service.cache_stats.evictions > 0

    def test_differently_named_labeling_builds_cold(self, service, labeling):
        service.explain(labeling)
        unrelated = _drifted(labeling, name="unrelated")
        report = service.explain(unrelated)
        assert service.stats.drift_updates == 0
        assert service.stats.cold_builds == 2
        assert report.render() == _reference_report(unrelated).render()

    def test_disjoint_same_name_labelings_build_cold(self, service, labeling):
        # Two unrelated labelings that happen to share a name (e.g. the
        # constructor default "lambda") have no surviving columns, so
        # "drift" would just be a cold build plus wasted J-matches over
        # the predecessor's pool — and lying counters.
        service.explain(labeling)
        used = {c for t in labeling.tuples() for c in t}
        others = sorted(
            (c for c in service.system.domain() if c not in used), key=repr
        )[:3]
        disjoint = Labeling(others[:2], others[2:3], name=labeling.name)
        report = service.explain(disjoint)
        assert service.stats.drift_updates == 0
        assert service.stats.cold_builds == 2
        assert report.render() == _reference_report(disjoint).render()

    def test_drift_preview_does_not_promote_sessions(self, labeling):
        # drift_of is observability: a monitoring loop polling it must not
        # change which warm sessions survive eviction.
        service = ExplanationService(build_university_system(), max_sessions=2)
        service.explain(labeling)  # session A (LRU after B arrives)
        second = Labeling(["A10", "B80"], ["E25"], name="second")
        service.explain(second)  # session B
        for _ in range(5):
            service.drift_of(_drifted(labeling))  # would promote A if it touched
        third = Labeling(["C12"], ["E25"], name="third")
        service.explain(third)  # evicts the true LRU session: A
        assert service._sessions.get((labeling.signature(), 1), touch=False) is None
        assert service._sessions.get((second.signature(), 1), touch=False) is not None

    def test_chained_drift_stays_identical(self, service, labeling):
        service.explain(labeling)
        current = labeling
        for _ in range(3):
            current = _drifted(current)
            report = service.explain(current)
            assert report.render() == _reference_report(current).render()
        assert service.stats.drift_updates == 3


class TestLifecycle:
    def test_session_ring_is_bounded(self, labeling):
        service = ExplanationService(build_university_system(), max_sessions=1)
        service.explain(labeling)
        other = Labeling(labeling.positives, labeling.negatives, name="other")
        inverted = other.inverted()
        service.explain(inverted)  # different signature: evicts the first session
        assert service.size_report()["sessions"] == 1
        # The first labeling is served again — correctly, just not warm.
        report = service.explain(labeling)
        assert report.render() == _reference_report(labeling).render()

    def test_store_eviction_keeps_sessions_warm(self, labeling):
        # Sessions keep private copies of their rows: store eviction
        # costs later labelings recomputation, never a session its warmth
        # or its correctness.
        service = ExplanationService(
            build_university_system(),
            cache_limits=CacheLimits(verdict_queries=1, border_aboxes=1),
        )
        inverted = labeling.inverted()
        first = service.explain(labeling).render()
        service.explain(inverted)  # evicts the first labeling's cells
        again = service.explain(labeling)
        assert service.stats.warm_hits == 1
        assert service.cache_stats.evictions > 0
        assert again.render() == first
        assert again.render() == _reference_report(labeling).render()

    def test_cache_limits_bound_the_whole_resident_footprint(self):
        # CacheLimits must bound *all* long-lived per-tuple state, not
        # just the shared layers: the service's border computer and its
        # evaluators' ABox lookups must not pin every tuple ever served.
        service = ExplanationService(
            build_university_system(),
            cache_limits=CacheLimits(border_aboxes=2, verdict_queries=2),
            max_sessions=2,
        )
        students = ["A10", "B80", "C12", "D50", "E25"]
        for index, student in enumerate(students):
            others = [s for s in students if s != student]
            service.explain(Labeling([student], others[:2], name=f"probe_{index}"))
        assert service.size_report()["border_aboxes"] <= 2
        assert service.size_report()["verdict_columns"] <= 2
        assert service.size_report()["verdict_queries"] <= 2
        assert len(service._border_computer._cache) <= 2
        assert service.evaluator()._abox_cache == {}
        # Border evictions are visible in the shared counter like every
        # other bounded layer's.
        assert service.cache_stats.evictions > 0

    def test_warm_traffic_protects_the_hot_layout_from_eviction(self, labeling):
        # Under verdict-store pressure the hot labeling stays warm: its
        # session holds its own rows, so no store eviction retires it.
        service = ExplanationService(
            build_university_system(),
            cache_limits=CacheLimits(verdict_queries=2),
        )
        service.explain(labeling)  # hot layout A
        idle = Labeling(["A10", "B80"], ["E25"], name="idle")
        service.explain(idle)  # idle layout B
        service.explain(labeling)  # warm hit
        newcomer = Labeling(["C12"], ["E25"], name="newcomer")
        service.explain(newcomer)  # layout C evicts store entries A and B used
        warm_hits = service.stats.warm_hits
        service.explain(labeling)
        assert service.stats.warm_hits == warm_hits + 1, (
            "the hot layout was evicted despite warm traffic"
        )

    def test_legacy_per_pair_path_is_served_too(self, labeling):
        system = build_university_system()
        system.specification.engine.verdicts.enabled = False
        service = ExplanationService(system)
        report = service.explain(labeling)
        repeat = service.explain(labeling)
        assert report.render() == repeat.render() == _reference_report(labeling).render()

    def test_concurrent_requests_are_safe_and_identical(self, labeling):
        from concurrent.futures import ThreadPoolExecutor

        service = ExplanationService(build_university_system())
        drifted = _drifted(labeling)
        queries = list(example_queries().values())
        reference = {
            id(lam): _reference_report(lam, candidates=queries, top_k=None).render(top_k=None)
            for lam in (labeling, drifted)
        }
        requests = [labeling, drifted] * 6

        def serve(lam):
            return id(lam), service.explain(lam, candidates=queries, top_k=None).render(top_k=None)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for key, rendered in pool.map(serve, requests):
                assert rendered == reference[key]
        assert service.stats.requests == len(requests)

    def test_invalid_max_sessions_rejected(self):
        from repro.errors import ExplanationError

        with pytest.raises(ExplanationError):
            ExplanationService(build_university_system(), max_sessions=0)


class TestPersistence:
    def test_save_load_round_trip_yields_identical_rankings(self, service, labeling, tmp_path):
        first = service.explain(labeling)
        path = tmp_path / "service.cache"
        saved = service.save(path)
        assert saved["verdict_rows"] > 0

        restarted = ExplanationService(build_university_system())
        added = restarted.load(path)
        assert added["verdict_rows"] > 0
        report = restarted.explain(labeling)
        assert report.render() == first.render()
        # The restarted service starts warm: rows come from the snapshot.
        assert restarted.cache_stats.verdict_row_hits > 0
        assert restarted.cache_stats.verdict_row_misses == 0

    def test_snapshot_respects_limits_on_load(self, service, labeling, tmp_path):
        service.explain(labeling)
        service.explain(labeling.inverted())
        path = tmp_path / "service.cache"
        service.save(path)
        bounded = ExplanationService(
            build_university_system(),
            cache_limits=CacheLimits(verdict_queries=4, border_aboxes=2),
        )
        bounded.load(path)
        assert bounded.size_report()["verdict_queries"] == 4
        assert bounded.size_report()["verdict_columns"] == 2
        report = bounded.explain(labeling)
        assert report.render() == _reference_report(labeling).render()


class TestMatrixInjectionValidation:
    def test_mismatched_matrix_is_rejected(self, labeling):
        from repro.core.best_describe import BestDescriptionSearch
        from repro.core.matching import MatchEvaluator
        from repro.engine.verdicts import BorderColumns, VerdictMatrix
        from repro.errors import ExplanationError

        system = build_university_system()
        evaluator = MatchEvaluator(system, radius=1)
        matrix = VerdictMatrix(
            evaluator, BorderColumns.from_labeling(evaluator, labeling)
        )
        other = labeling.inverted()
        with pytest.raises(ExplanationError):
            BestDescriptionSearch(system, other, 1, evaluator=evaluator, matrix=matrix)
        with pytest.raises(ExplanationError):
            BestDescriptionSearch(system, labeling, 2, matrix=matrix)
        # Same labeling and radius, but a different system: the verdict
        # bits would reflect the wrong database.
        with pytest.raises(ExplanationError):
            BestDescriptionSearch(build_university_system(), labeling, 1, matrix=matrix)
        # An evaluator from another system is just as silently wrong.
        with pytest.raises(ExplanationError):
            BestDescriptionSearch(
                build_university_system(), labeling, 1, evaluator=evaluator
            )


class TestWarmStart:
    def test_warm_start_prebuilds_the_fleet(self, service, labeling):
        shifted = _drifted(labeling, name="probe-b")
        counts = service.warm_start([labeling, shifted])
        assert counts["labelings"] == 2
        assert counts["cold"] == 2
        assert counts["rows"] > 0
        stats_before = service.cache_stats.as_dict()
        report = service.explain(labeling)
        drifted_report = service.explain(shifted)
        delta = service.cache_stats.delta_since(stats_before)
        assert delta.get("verdict_row_misses", 0) == 0, (
            "warm-started sessions should serve explain() without building rows"
        )
        assert service.stats.as_dict()["warm_hits"] == 2
        assert report.render() == _reference_report(labeling).render()
        assert drifted_report.render() == _reference_report(shifted).render()

    def test_second_warm_start_is_idempotent(self, service, labeling):
        first = service.warm_start([labeling])
        second = service.warm_start([labeling])
        assert first["cold"] == 1 and second["warm"] == 1
        assert second["rows"] == 0

    def test_shared_candidates_warm_the_matrix(self, service, labeling):
        counts = service.warm_start(
            [labeling],
            candidates=["q1(x) :- likes(x, y)", "q2(x) :- studies(x, 'Math')"],
        )
        assert counts["rows"] == 2

    def test_warm_start_without_matrices_is_a_noop(self, labeling):
        system = build_university_system()
        system.specification.engine.verdicts.enabled = False
        service = ExplanationService(system)
        counts = service.warm_start([labeling])
        assert counts["cold"] == 1
        assert counts["rows"] == 0 and counts["batched"] == 0
        assert service.explain(labeling).render() == _reference_report(labeling).render()


class TestExplainerIntegration:
    def test_explainer_service_shares_the_system(self, labeling):
        explainer = OntologyExplainer(build_university_system())
        service = explainer.service(max_sessions=4)
        assert service.system is explainer.system
        assert service.explain(labeling).render() == explainer.explain(labeling).render()


class TestBooleanLabelingsThroughTheStack:
    def test_boolean_and_int_features_coexist(self):
        # Regression companion to the Constant bool/int fix: the service
        # layer must accept labelings mixing True with 1 end to end.
        labeling = Labeling(positives=[True, "A10"], negatives=[1, 0], name="bools")
        assert labeling.label_of(True) == 1
        assert labeling.label_of(1) == -1


class TestDriftPreviewEdgeCases:
    def test_unknown_labeling_name_previews_none(self, service, labeling):
        service.explain(labeling)
        stranger = Labeling(
            labeling.positives, list(labeling.negatives) + [("E25",)], name="never_served"
        )
        assert service.drift_of(stranger) is None

    def test_radius_mismatch_previews_none(self, service, labeling):
        service.explain(labeling)  # served at the default radius
        drifted = _drifted(labeling)
        assert service.drift_of(drifted) is not None
        # The same name under another radius has no warm predecessor.
        assert service.drift_of(drifted, radius=0) is None

    def test_evicted_predecessor_previews_none(self, labeling):
        service = ExplanationService(build_university_system(), max_sessions=2)
        service.explain(labeling)
        drifted = _drifted(labeling)
        assert service.drift_of(drifted) is not None
        # Fill the session ring until the predecessor is evicted.
        constants = sorted(
            str(c.value) for t in labeling.tuples() for c in t
        )
        for index in range(2):
            filler = Labeling(
                positives=constants[index : index + 1],
                negatives=constants[index + 1 : index + 2],
                name=f"filler_{index}",
            )
            service.explain(filler)
        assert service.drift_of(drifted) is None


class TestDatabaseDrift:
    def _delta(self, database):
        from repro.obdm.database import DatabaseDelta
        from repro.queries.atoms import Atom
        from repro.queries.terms import Constant

        removed = sorted(database.facts, key=str)[0]
        added = Atom(
            removed.predicate, tuple(Constant(f"GHOST{i}") for i in range(len(removed.args)))
        )
        return DatabaseDelta.of([added], [removed])

    def _reference_system(self, database):
        base = build_university_system()
        return OBDMSystem(base.specification, database, name="university_drift_ref")

    def test_apply_delta_serves_post_delta_rankings(self, service, labeling):
        service.explain(labeling)
        delta = self._delta(service.system.database)
        accounting = service.apply_delta(delta)
        assert accounting["sessions_updated"] == 1
        assert service.stats.database_deltas == 1
        report = service.explain(labeling)
        reference = OntologyExplainer(
            self._reference_system(service.system.database.copy())
        ).explain(labeling)
        assert report.render() == reference.render()

    def test_snapshot_is_refused_after_database_drift(self, service, labeling, tmp_path):
        service.explain(labeling)
        path = tmp_path / "service.cache"
        service.save(path)
        # A drifted twin refuses the pre-delta snapshot...
        twin = ExplanationService(build_university_system())
        twin.apply_delta(self._delta(twin.system.database))
        with pytest.raises(ValueError):
            twin.load(path)
        # ...and so does the saving service itself once it drifts.
        service.apply_delta(self._delta(service.system.database))
        with pytest.raises(ValueError):
            service.load(path)

    def test_snapshot_round_trip_after_matching_drift(self, service, labeling, tmp_path):
        service.explain(labeling)
        delta = self._delta(service.system.database)
        service.apply_delta(delta)
        service.explain(labeling)
        path = tmp_path / "service.cache"
        service.save(path)
        restarted = ExplanationService(build_university_system())
        restarted.apply_delta(delta)  # same post-delta content: accepted
        restarted.load(path)
        assert restarted.explain(labeling).render() == service.explain(labeling).render()
