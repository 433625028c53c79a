"""Experiment configuration, runners, and the command-line interface."""

from .config import ConfigError, ExperimentConfig, emit_csv, make_config, parse_config, parse_map
from .runners import (
    RUNNERS,
    DatasetError,
    run_bounds_sweep,
    run_design_sim,
    run_map_eval,
    run_quantization_sim,
    run_retrieval,
    run_universal_scatter,
)
from .main import main
