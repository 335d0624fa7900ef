"""Tests for the experiment harness: the paper's numbers must reproduce."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_batch_scoring,
    run_bias_ablation,
    run_border_scalability,
    run_certain_answers,
    run_example_3_3,
    run_example_3_6,
    run_example_3_8,
    run_fidelity,
    run_proposition_3_5,
    run_search_scalability,
    run_weight_ablation,
)
from repro.experiments.harness import run_all


class TestExperimentResult:
    def test_render_and_columns(self):
        result = ExperimentResult("X", "demo")
        result.add_row(a=1, b=0.5)
        result.add_row(a=2, c="text")
        assert result.columns() == ["a", "b", "c"]
        rendered = result.render()
        assert "[X] demo" in rendered and "0.500" in rendered

    def test_empty_render(self):
        assert "(no rows)" in ExperimentResult("X", "demo").render()

    def test_column_accessor(self):
        result = ExperimentResult("X", "demo")
        result.add_row(a=1)
        result.add_row(b=2)
        assert result.column("a") == [1, None]


class TestPaperExampleExperiments:
    def test_e1_all_layers_match_paper(self):
        result = run_example_3_3()
        assert all(result.column("matches_paper"))
        assert result.rows[-1]["border_size"] == 4

    def test_e2_all_match_sets_match_paper(self):
        result = run_example_3_6()
        assert all(result.column("matches_paper"))

    def test_e3_five_of_six_scores_match(self):
        result = run_example_3_8()
        agreements = result.column("agrees")
        assert agreements.count(True) == 5
        # The single disagreement is the known paper slip on Z1(q2).
        disagreeing = [row for row in result.rows if not row["agrees"]]
        assert len(disagreeing) == 1
        assert disagreeing[0]["query"] == "q2"
        assert disagreeing[0]["measured_z"] == pytest.approx(0.5)

    def test_e4_no_monotonicity_violations(self):
        result = run_proposition_3_5(students=15)
        assert sum(result.column("violations")) == 0

    def test_e5_strategies_agree(self):
        result = run_certain_answers(sizes=(30,))
        assert all(result.column("strategies_agree"))
        # q3 is the query that benefits from the ontology axiom.
        q3_rows = [row for row in result.rows if row["query"] == "q3"]
        assert all(row["ontology_gain"] > 0 for row in q3_rows)

    def test_e8a_paper_winners(self):
        result = run_weight_ablation(weight_grid=((1, 1, 1), (3, 1, 1)))
        winners = {(row["alpha"], row["beta"], row["gamma"]): row["winner"] for row in result.rows}
        assert winners[(1, 1, 1)] == "q3"
        assert winners[(3, 1, 1)] == "q1"


class TestExtendedExperiments:
    def test_e6_fidelity_small(self):
        result = run_fidelity(size=20, classifiers=("decision_tree",), max_candidates=80)
        assert len(result.rows) == 3  # one per domain
        for row in result.rows:
            assert 0.0 <= row["delta1_coverage"] <= 1.0
            assert 0.0 <= row["delta4_exclusion"] <= 1.0
            assert row["z_score"] > 0.0

    def test_e7a_border_scalability_shapes(self):
        result = run_border_scalability(sizes=(30, 60), radii=(0, 1))
        assert len(result.rows) == 4
        by_size = {}
        for row in result.rows:
            by_size.setdefault(row["students"], []).append(row)
        for rows in by_size.values():
            sizes = [row["mean_border_size"] for row in sorted(rows, key=lambda r: r["radius"])]
            assert sizes == sorted(sizes)  # borders grow with the radius

    def test_e7b_search_scalability(self):
        result = run_search_scalability(sizes=(15,))
        assert len(result.rows) == 1
        assert result.rows[0]["best_coverage"] >= 0.9  # the Rome rule is recoverable

    def test_e8b_bias_is_surfaced(self):
        result = run_bias_ablation(persons=25, bias_levels=(0.0, 1.0), max_candidates=120)
        by_bias = {row["bias_strength"]: row for row in result.rows}
        assert by_bias[1.0]["mentions_group"] or by_bias[1.0]["best_query"] != by_bias[0.0]["best_query"]


class TestBatchScoringExperiment:
    def test_e9_batch_matches_per_call_and_is_faster(self):
        result = run_batch_scoring(
            applicants=10, candidate_pool=8, labeled_per_side=2, labelings=2
        )
        row = result.rows[0]
        assert row["identical_rankings"] is True
        assert row["labelings"] == 2
        assert row["saturations_saved"] > 0
        # No wall-clock assertion here: the perf gate lives in
        # benchmarks/bench_batch_explain.py where the workload is big
        # enough for timing to be meaningful.
        assert row["per_call_seconds"] >= 0 and row["batch_seconds"] >= 0


class TestBitsetCriteriaExperiment:
    def test_e10_bitset_matches_legacy_and_sharding_is_identical(self):
        from repro.experiments.scalability import run_bitset_criteria

        result = run_bitset_criteria(
            applicants=12, candidate_pool=8, labeled_per_side=3, labelings=2, rounds=1
        )
        criteria_row, sharding_row = result.rows
        assert criteria_row["mode"] == "criteria_phase"
        assert criteria_row["identical_rankings"] is True
        assert criteria_row["verdict_rows_reused"] > 0
        assert sharding_row["mode"] == "process_sharding"
        assert sharding_row["identical_rankings"] is True
        # No wall-clock assertion here: the perf gate lives in
        # benchmarks/bench_bitset_criteria.py where the workload is big
        # enough for timing to be meaningful.
        assert criteria_row["legacy_seconds"] >= 0 and criteria_row["bitset_seconds"] >= 0


class TestServiceWarmDriftStream:
    """E11's drift stream: constant side sizes, applicants from the database."""

    def _stream(self, applicants, labeled_per_side, steps):
        from repro.experiments.service_exp import _drift_stream
        from repro.workloads.loans_gen import LoanWorkloadConfig, generate_loan_workload

        database = generate_loan_workload(LoanWorkloadConfig(applicants=applicants)).database
        names = sorted(
            str(fact.args[0].value) for fact in database.facts_with_predicate("APPLICANT")
        )
        return database, _drift_stream(names, labeled_per_side, steps, drift_per_step=1)

    @pytest.mark.parametrize("applicants", (16, 20))
    def test_steps_beyond_side_size_keep_both_sides(self, applicants):
        database, stream = self._stream(applicants, labeled_per_side=8, steps=12)
        assert len(stream) == 12
        for step, labeling in enumerate(stream):
            sizes = (len(labeling.positives), len(labeling.negatives))
            assert sizes == (8, 8), f"step {step} has sides {sizes}"
            assert labeling.validate_against(database) == [], (
                f"step {step} names applicants outside the database"
            )
        for before, after in zip(stream, stream[1:]):
            drift = before.diff(after)
            assert len(drift.flipped) == 2
            spares = applicants > 16
            assert (len(drift.added), len(drift.removed)) == ((1, 1) if spares else (0, 0))

    def test_too_few_applicants_rejected(self):
        from repro.experiments.service_exp import _drift_stream

        with pytest.raises(ValueError):
            _drift_stream(["APP0000", "APP0001"], labeled_per_side=2, steps=3, drift_per_step=1)


class TestBatchLabelingsExperiment:
    def test_e13_batch_labelings_small(self):
        from repro.experiments.batch_kernel_exp import run_batch_labelings

        result = run_batch_labelings(
            applicants=12, candidate_pool=8, labeled_per_side=3, labelings=2, rounds=1
        )
        dispatch_row, identity_row, pruning_row = result.rows
        assert dispatch_row["mode"] == "batch_dispatch"
        assert dispatch_row["identical"] is True
        assert dispatch_row["batch_dispatches"] == 1
        assert dispatch_row["batch_cells"] == dispatch_row["expected_cells"]
        assert dispatch_row["legacy_cells"] == dispatch_row["expected_cells"]
        assert identity_row["identical"] is True
        assert identity_row["cells"] == 16
        assert pruning_row["identical"] is True
        assert pruning_row["pruned"] > 0
        # No wall-clock assertion here: the perf gate lives in
        # benchmarks/bench_batch_labelings.py where the workload is big
        # enough for timing to be meaningful.
        assert dispatch_row["legacy_seconds"] >= 0 and dispatch_row["batch_seconds"] >= 0


class TestHarness:
    def test_registry_covers_design_index(self):
        assert {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7a", "E7b",
            "E8a", "E8b", "E9", "E10", "E11", "E12", "E13",
        } <= set(EXPERIMENTS)

    def test_run_all_subset(self):
        results = run_all(only=("E1", "E3"))
        assert set(results) == {"E1", "E3"}

    def test_run_all_unknown_id(self):
        with pytest.raises(KeyError):
            run_all(only=("E99",))
