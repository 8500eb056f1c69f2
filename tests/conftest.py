"""Shared fixtures: the full acceptance run battery, computed once per session.

Five policy configurations x two shift schedules x ten seeds. Streams are
generated once per (schedule, seed) and shared across the policies to keep
the wall-clock budget sane. For the tracked configuration the per-step
coverage errors, all-model optimal levels and chosen-model losses are read
through ``run_seed``'s ``on_step`` and kept as compact arrays for the
calibration-speed and regret checks; the other runs keep no step data.
"""

from __future__ import annotations

import numpy as np
import pytest

from gmocp.runner import DEFAULT_PROFILES, parse_config, run_seed
from gmocp.streams import ModelProfile, StreamConfig, generate_stream

SEEDS = tuple(range(10))
SCHEDULES = ("gradual", "sudden")

# label -> (policy, N, J); the tracked flag keeps per-step arrays around
RUN_CONFIGS = {
    "gmocp-3-1": ("gmocp", 3, 1),
    "gmocp-5-4": ("gmocp", 5, 4),
    "egmocp-3-1": ("egmocp", 3, 1),
    "egmocp-5-4": ("egmocp", 5, 4),
    "mocp": ("mocp", None, None),
}
TRACKED = ("gradual", "gmocp-3-1")


def experiment_config(policy, n, j, schedule, tmp_path, track=False, horizon=6000):
    doc = {
        "policy": policy,
        "policy_params": {"track_alpha_bar": bool(track)},
        "stream": {"schedule": schedule, "horizon": horizon},
        "seeds": list(SEEDS),
        "output": "results",
    }
    if n is not None:
        doc["policy_params"].update({"N": n, "J": j})
    return parse_config(doc, base_dir=str(tmp_path))


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """{"rows": {(schedule, label): [ResultRow]}, "tracked": {seed: arrays}}."""
    base = tmp_path_factory.mktemp("acceptance")
    rows = {(s, label): [] for s in SCHEDULES for label in RUN_CONFIGS}
    tracked = {}

    for schedule in SCHEDULES:
        stream_cfg = StreamConfig(
            model_profiles=tuple(ModelProfile(q) for q in DEFAULT_PROFILES),
            schedule=schedule,
        )
        for seed in SEEDS:
            steps = list(generate_stream(stream_cfg, master_seed=seed))
            for label, (policy, n, j) in RUN_CONFIGS.items():
                track = (schedule, label) == TRACKED
                cfg = experiment_config(policy, n, j, schedule, base, track=track)
                kept = []
                row, _ = run_seed(cfg, seed, steps=steps, on_step=kept.append if track else None)
                rows[(schedule, label)].append(row)
                if track:
                    tracked[seed] = {
                        "err": np.array([r.err for r in kept], dtype=float),
                        "alpha_bars": np.array([r.alpha_bars for r in kept]),
                        "chosen_loss": np.array([r.chosen_loss for r in kept]),
                    }
            del steps
    return {"rows": rows, "tracked": tracked}
