"""Synthetic multi-model probability streams with distribution-shift schedules.

Each model profile produces a softmax over labels from a true-label signal
plus gaussian noise whose scale grows with the corruption severity. Steps
are pure functions of (config, t), so generation supports random access
and parallel sweeps with exact replay.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import stream_rng
from .scoring import validate_prob_vector

SCHEDULES = ("gradual", "sudden", "stationary")

# Frozen after calibrating top-1 accuracy by simulation: at severity 0 the
# high profile reaches >= 0.85 and the low profile stays <= 0.4 under the
# default noise_scale/temperature; the high profile stays informative even
# at peak severity while the low one degrades to chance.
QUALITY_SIGNAL = {"high": 12.0, "medium": 7.0, "low": 1.0}

MAX_SEVERITY = 5

# rows per block of generate_stream, counting M + 1 per step (its label and its M models),
# whose softmax it takes in one pass. The policy step after a block runs on cold caches
# (about +30 us at M=8), so blocks are long enough to make that rare (one step in 227 at
# M=8) and short enough to hold only 2048 * K probabilities.
BLOCK_ROWS = 2048

# the layout of the draws behind a synthetic stream; ExperimentConfig.config_id hashes it,
# so results made from streams of another layout never share an id with these. Version 1
# drew each step's label and each model's normals from M + 1 generators.
STREAM_VERSION = 2

# default mixed-quality model pool: mostly strong with a medium and a weak model
DEFAULT_PROFILES = ("high",) * 6 + ("medium", "low")


class StreamFormatError(ValueError):
    """Raised when a stream file violates the expected schema."""


@dataclass(frozen=True)
class ModelProfile:
    quality: str
    noise_scale: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if self.quality not in QUALITY_SIGNAL:
            raise ValueError(f"unknown quality {self.quality!r}")
        for key in ("noise_scale", "temperature"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass(frozen=True)
class StreamConfig:
    model_profiles: tuple = tuple(ModelProfile(q) for q in DEFAULT_PROFILES)
    n_labels: int = 20
    horizon: int = 6000
    batch_size: int = 500
    schedule: str = "gradual"

    def __post_init__(self):
        if self.n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {self.n_labels}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if len(self.model_profiles) < 1:
            raise ValueError("need at least one model profile")

    @property
    def n_models(self) -> int:
        return len(self.model_profiles)

    @cached_property
    def profile_columns(self) -> tuple:
        """Noise scale, quality signal and temperature of each model, as read-only
        (M, 1), (M,) and (M, 1) arrays, built on first use and kept with the config."""
        profiles = self.model_profiles
        columns = (np.array([[p.noise_scale] for p in profiles]),
                   np.array([QUALITY_SIGNAL[p.quality] for p in profiles]),
                   np.array([[p.temperature] for p in profiles]))
        for column in columns:
            column.flags.writeable = False
        return columns


@dataclass(frozen=True)
class StreamStep:
    t: int
    true_label: int
    probs: np.ndarray  # (M, K): one probability vector per model
    severity: int


def severity_at(t: int, schedule: str, batch_size: int) -> int:
    """Corruption severity of timestep t (1-based) under the given schedule.

    gradual cycles 0,1,2,3,4,5,4,3,2,1 per batch; sudden alternates 0/5.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if schedule == "stationary":
        return 0
    batch = (t - 1) // batch_size
    if schedule == "sudden":
        return 0 if batch % 2 == 0 else MAX_SEVERITY
    pos = batch % (2 * MAX_SEVERITY)
    return pos if pos <= MAX_SEVERITY else 2 * MAX_SEVERITY - pos


def _steps(cfg: StreamConfig, master_seed: int, start: int, stop: int):
    """Steps start..stop-1, their softmax taken in one pass.

    Step t draws from one generator, ``stream_rng(master_seed, "stream-step", t)``: its
    label with ``integers(K)`` first, then its (M, K) normals in row-major order, which
    fill the step's row of the block's (steps, M, K) array. Each step gets its own copy
    of its row, so a step kept does not keep the block.
    """
    n, m, k = stop - start, cfg.n_models, cfg.n_labels
    labels = []
    logits = np.empty((n, m, k))  # the normals, turned into probabilities in place
    for t, row in zip(range(start, stop), logits):
        rng = stream_rng(master_seed, "stream-step", t)
        labels.append(int(rng.integers(k)))
        rng.standard_normal(out=row)
    severities = [severity_at(t, cfg.schedule, cfg.batch_size) for t in range(start, stop)]

    noise, signal, temperature = cfg.profile_columns
    logits *= noise * (1.0 + np.array(severities, dtype=float))[:, None, None]
    logits[np.arange(n), :, labels] += signal
    logits /= temperature
    logits -= logits.max(axis=2, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=2, keepdims=True)
    for t, label, severity, p in zip(range(start, stop), labels, severities, probs):
        yield StreamStep(t=t, true_label=label, probs=p.copy(), severity=severity)


def generate_step(cfg: StreamConfig, t: int, master_seed: int) -> StreamStep:
    """Step t of the stream; depends only on (cfg, t, master_seed)."""
    if not 1 <= t <= cfg.horizon:
        raise ValueError(f"t={t} outside [1, {cfg.horizon}]")
    return next(_steps(cfg, master_seed, t, t + 1))


def block_steps(cfg: StreamConfig) -> int:
    """Steps per block of ``generate_stream``."""
    return max(1, BLOCK_ROWS // (cfg.n_models + 1))


def generate_stream(cfg: StreamConfig, master_seed: int):
    """Iterate steps 1..horizon of the stream of seed ``master_seed``."""
    size = block_steps(cfg)
    for start in range(1, cfg.horizon + 1, size):
        yield from _steps(cfg, master_seed, start, min(start + size, cfg.horizon + 1))


def save_stream(steps, n_labels: int, path) -> None:
    """Write steps as CSV: t,true_label,severity,model_id,p_0..p_{K-1} (LF, full-precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t", "true_label", "severity", "model_id"] + [f"p_{k}" for k in range(n_labels)]
        )
        for step in steps:
            for m, p in enumerate(step.probs):
                writer.writerow(
                    [step.t, step.true_label, step.severity, m] + [repr(float(x)) for x in p]
                )


def load_stream(path):
    """Yield StreamSteps from a stream CSV, validating schema and simplexes."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["t", "true_label", "severity", "model_id"]:
            raise StreamFormatError(f"bad header in {path}: {header}")
        n_labels = len(header) - 4
        if n_labels < 1 or header[4:] != [f"p_{k}" for k in range(n_labels)]:
            raise StreamFormatError(f"bad probability columns in {path}")

        pending = None  # (t, true_label, severity, [probs...])
        n_models = None

        def finish(group):
            nonlocal n_models
            t, y, sev, probs = group
            if n_models is None:
                n_models = len(probs)
            elif len(probs) != n_models:
                raise StreamFormatError(
                    f"t={t}: {len(probs)} model rows, expected {n_models}"
                )
            return StreamStep(t=t, true_label=y, probs=np.array(probs), severity=sev)

        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4 + n_labels:
                raise StreamFormatError(f"line {lineno}: {len(row)} fields, expected {4 + n_labels}")
            try:
                t, y, sev, m = (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
                p = np.array([float(x) for x in row[4:]], dtype=float)
            except ValueError as exc:
                raise StreamFormatError(f"line {lineno}: {exc}") from exc
            if lineno == 2 and t != 1:
                raise StreamFormatError(f"line 2: stream starts at t={t}, expected t=1")
            if not 0 <= y < n_labels:
                raise StreamFormatError(f"line {lineno}: true_label {y} outside [0, {n_labels})")
            if not 0 <= sev <= MAX_SEVERITY:
                raise StreamFormatError(f"line {lineno}: severity {sev} out of range")
            try:
                validate_prob_vector(p, n_labels, tol=1e-4)
            except ValueError as exc:
                raise StreamFormatError(f"line {lineno}: {exc}") from exc
            if pending is not None and t != pending[0]:
                if t != pending[0] + 1:
                    raise StreamFormatError(f"line {lineno}: t={t} after t={pending[0]}")
                yield finish(pending)
                pending = None
            if pending is None:
                pending = (t, y, sev, [])
            elif (y, sev) != (pending[1], pending[2]):
                raise StreamFormatError(f"line {lineno}: inconsistent label/severity at t={t}")
            if m != len(pending[3]):
                raise StreamFormatError(f"line {lineno}: model_id {m}, expected {len(pending[3])}")
            pending[3].append(p)
        if pending is None:
            raise StreamFormatError(f"{path}: no steps after the header")
        yield finish(pending)
