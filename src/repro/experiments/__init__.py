"""Experiments reproducing every numeric artifact of the paper (E1-E8).

The serving experiments E15 (asyncio gateway) and E16 (SQLite storage
backend) live next to them; ``python -m repro.experiments.harness``
runs and prints any of them.
"""

from .ablation import run_bias_ablation, run_weight_ablation
from .certain_answers_exp import run_certain_answers
from .fidelity import run_fidelity
from .paper_examples import (
    PAPER_EXAMPLE_3_3_LAYERS,
    PAPER_EXAMPLE_3_6_MATCHES,
    PAPER_EXAMPLE_3_8_SCORES,
    run_example_3_3,
    run_example_3_6,
    run_example_3_8,
    run_proposition_3_5,
)
from .scalability import run_border_scalability, run_search_scalability
from .tables import ExperimentResult

__all__ = [
    "ExperimentResult",
    "PAPER_EXAMPLE_3_3_LAYERS",
    "PAPER_EXAMPLE_3_6_MATCHES",
    "PAPER_EXAMPLE_3_8_SCORES",
    "run_bias_ablation",
    "run_border_scalability",
    "run_certain_answers",
    "run_example_3_3",
    "run_example_3_6",
    "run_example_3_8",
    "run_fidelity",
    "run_proposition_3_5",
    "run_search_scalability",
    "run_weight_ablation",
]
