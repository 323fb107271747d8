"""Analysis layer: thresholds, reporting, and the unified experiment runner."""

from .detection import (
    CalibratedThresholds,
    threshold_from_baseline,
)
from .registry import ExperimentSpec, all_experiments, experiment_names, get_experiment
from .reporting import ascii_table, series_csv
from .runner import RunRecord, run_experiment, run_many

__all__ = [
    "CalibratedThresholds",
    "threshold_from_baseline",
    "ExperimentSpec",
    "all_experiments",
    "experiment_names",
    "get_experiment",
    "RunRecord",
    "run_experiment",
    "run_many",
    "ascii_table",
    "series_csv",
]
