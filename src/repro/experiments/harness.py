"""Top-level experiment harness.

``run_all()`` regenerates every experiment of the index in DESIGN.md
(E1–E8) with sizes small enough to finish on a laptop in a couple of
minutes, and returns the results keyed by experiment id.  The
``python -m repro.experiments.harness`` entry point prints every table,
which is the textual equivalent of re-running the paper's evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .ablation import run_bias_ablation, run_weight_ablation
from .certain_answers_exp import run_certain_answers
from .fidelity import run_fidelity
from .paper_examples import (
    run_example_3_3,
    run_example_3_6,
    run_example_3_8,
    run_proposition_3_5,
)
from .scalability import (
    run_batch_scoring,
    run_bitset_criteria,
    run_border_scalability,
    run_search_scalability,
)
from .batch_kernel_exp import run_batch_labelings
from .database_drift_exp import run_database_drift
from .gateway_exp import run_gateway_serving
from .kernel_exp import run_match_kernel
from .out_of_core_exp import run_out_of_core
from .service_exp import run_service_warm
from .tables import ExperimentResult

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "E1": run_example_3_3,
    "E2": run_example_3_6,
    "E3": run_example_3_8,
    "E4": run_proposition_3_5,
    "E5": lambda: run_certain_answers(sizes=(50, 100)),
    "E6": lambda: run_fidelity(size=30, max_candidates=200),
    "E7a": lambda: run_border_scalability(sizes=(50, 100, 200)),
    "E7b": lambda: run_search_scalability(sizes=(20, 40)),
    "E8a": run_weight_ablation,
    "E8b": lambda: run_bias_ablation(persons=30, max_candidates=150),
    "E9": run_batch_scoring,
    "E10": run_bitset_criteria,
    "E11": run_service_warm,
    "E12": run_match_kernel,
    "E13": lambda: run_batch_labelings(applicants=24, candidate_pool=20, labeled_per_side=8, labelings=4, rounds=2),
    "E14": run_database_drift,
    "E15": run_gateway_serving,
    "E16": lambda: run_out_of_core(base_applicants=24, scale=5, candidate_pool=16, labeled_per_side=8),
}


def run_all(only: Optional[Sequence[str]] = None) -> Dict[str, ExperimentResult]:
    """Run every experiment (or the subset named in *only*)."""
    selected = list(EXPERIMENTS) if only is None else list(only)
    results: Dict[str, ExperimentResult] = {}
    for experiment_id in selected:
        if experiment_id not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
            )
        results[experiment_id] = EXPERIMENTS[experiment_id]()
    return results


def render_all(only: Optional[Sequence[str]] = None) -> str:
    """Render every experiment table as one text report."""
    results = run_all(only)
    blocks = [results[experiment_id].render() for experiment_id in results]
    return "\n\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: print the selected experiment tables."""
    import argparse

    parser = argparse.ArgumentParser(description="Re-run the paper's experiments")
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (default: all of E1..E8)",
    )
    arguments = parser.parse_args(argv)
    only = arguments.experiments or None
    print(render_all(only))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
