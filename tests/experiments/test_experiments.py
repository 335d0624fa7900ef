"""Tests for the experiment harness: the paper's numbers must reproduce."""

import pytest

from repro.experiments import (
    ExperimentResult,
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
from repro.experiments.harness import EXPERIMENTS, run_all


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


class TestHarness:
    def test_registry_covers_design_index(self):
        assert set(EXPERIMENTS) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7a", "E7b",
            "E8a", "E8b", "E15", "E16",
        }

    def test_run_all_subset(self):
        results = run_all(only=("E1", "E3"))
        assert set(results) == {"E1", "E3"}

    def test_run_all_unknown_id(self):
        with pytest.raises(KeyError):
            run_all(only=("E99",))
