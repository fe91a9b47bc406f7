"""Experiment harness: run (workload x policy) sweeps and assemble every
table and figure of the paper's evaluation section."""

from repro.experiments.runner import ExperimentResult
from repro.experiments import figures, harness, paper

__all__ = [
    "ExperimentResult",
    "figures",
    "harness",
    "paper",
]
