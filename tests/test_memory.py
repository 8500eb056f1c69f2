"""A run's memory grows with its calibration stores only, not with its steps."""

import tracemalloc

import pytest

from gmocp.runner import parse_config, run_seed

# Each step adds one float64 score to each of the M=8 calibration stores, 64
# bytes. The bound leaves 32 bytes for the stores' block growth and the local
# coverage tuple; a kept StepRecord alone would cost about 250.
BYTES_PER_STEP = 96


def peak_bytes(cfg) -> int:
    """Peak traced memory of ``run_seed`` above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run_seed(cfg, 0)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("policy, params", [("mocp", {}), ("gmocp", {"N": 3, "J": 1})])
def test_peak_memory_per_step_is_bounded(policy, params):
    def config(horizon):
        return parse_config({"policy": policy, "policy_params": params,
                             "stream": {"horizon": horizon}})

    run_seed(config(200), 0)  # warm-up: imports and caches that a run fills once
    short, long = peak_bytes(config(1000)), peak_bytes(config(10_000))
    assert (long - short) / 9000 <= BYTES_PER_STEP
