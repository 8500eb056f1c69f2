"""A run's memory grows with its calibration stores only, not with its steps."""

import tracemalloc

import pytest

from gmocp.policies import make_policy
from gmocp.runner import DEFAULT_PROFILES, parse_config, run_seed

# Each step adds one float64 score to each calibration store, 8 bytes per model. The
# bound leaves 4 bytes per model for the stores' block growth; a kept StepRecord
# alone would cost about 250 bytes per step.
BYTES_PER_STEP = 96  # at M=8 models
BYTES_PER_MODEL_STEP = BYTES_PER_STEP / 8


def peak_bytes(cfg) -> int:
    """Peak traced memory of ``run_seed`` above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run_seed(cfg, 0)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def growth_per_step(policy, params, n_models, short, long, deferred=False) -> float:
    """Bytes by which the peak of a run over ``long`` steps exceeds that of one over
    ``short``, per step, at ``n_models`` models of the default mix."""
    profiles = [DEFAULT_PROFILES[m % len(DEFAULT_PROFILES)] for m in range(n_models)]

    def config(horizon):
        return parse_config({"policy": policy, "policy_params": params,
                             "stream": {"profiles": profiles, "horizon": horizon}})

    cfg = config(200)
    assert (make_policy(cfg.policy, cfg.policy_params, 0)._log is not None) == deferred
    run_seed(cfg, 0)  # warm-up: imports and caches that a run fills once
    short_peak = peak_bytes(config(short))
    return (peak_bytes(config(long)) - short_peak) / (long - short)


@pytest.mark.parametrize("policy, params", [("mocp", {}), ("gmocp", {"N": 3, "J": 1})])
def test_peak_memory_per_step_is_bounded(policy, params):
    assert growth_per_step(policy, params, 8, 1000, 10_000) <= BYTES_PER_STEP


def test_peak_memory_per_step_is_bounded_on_the_deferred_path():
    """gmocp N1J1 at M=32 writes its scores to the deferred score log."""
    growth = growth_per_step("gmocp", {"N": 1, "J": 1}, 32, 500, 4500, deferred=True)
    assert growth <= BYTES_PER_MODEL_STEP * 32
