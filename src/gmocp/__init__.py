"""Deterministic online conformal prediction with graph-structured model selection."""

from .adapt import pinball_loss, sfogd_update
from .graph import FeedbackGraph, GraphParams, generate_graph
from .metrics import RunMetrics, compute_metrics, hindsight_regret
from .policies import (
    ACIPolicy,
    COMAPolicy,
    GMOCPPolicy,
    MOCPPolicy,
    PolicyConfig,
    StepRecord,
    make_policy,
)
from .runner import ExperimentConfig, ResultRow, run_experiment, run_seed
from .scoring import (
    CalibrationStore,
    PredictionSet,
    ScoreParams,
    build_prediction_set,
    nonconformity_score,
    optimal_alpha_bar,
    quantile_threshold,
)
from .streams import ModelProfile, StreamConfig, generate_step, generate_stream

__version__ = "0.1.0"
