"""Synthetic multi-model probability streams with distribution-shift schedules.

Each model profile produces a softmax over labels from a true-label signal
plus gaussian noise whose scale grows with the corruption severity. Steps
are pure functions of (config, t), so generation supports random access
and parallel sweeps with exact replay.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass(frozen=True)
class StreamConfig:
    model_profiles: tuple
    n_labels: int = 20
    horizon: int = 6000
    batch_size: int = 500
    schedule: str = "gradual"
    master_seed: int = 0

    def __post_init__(self):
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


@dataclass(frozen=True)
class StreamStep:
    t: int
    true_label: int
    probs: tuple  # one probability vector per model
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


def generate_step(cfg: StreamConfig, t: int, master_seed: int | None = None) -> StreamStep:
    """Step t of the stream; depends only on (cfg, t, seed)."""
    seed = cfg.master_seed if master_seed is None else master_seed
    if not 1 <= t <= cfg.horizon:
        raise ValueError(f"t={t} outside [1, {cfg.horizon}]")
    severity = severity_at(t, cfg.schedule, cfg.batch_size)
    label_rng = stream_rng(seed, "stream-label", t)
    true_label = int(label_rng.integers(cfg.n_labels))
    probs = []
    for m, profile in enumerate(cfg.model_profiles):
        rng = stream_rng(seed, "stream-model", t, m)
        scale = profile.noise_scale * (1.0 + severity)
        logits = rng.standard_normal(cfg.n_labels) * scale
        logits[true_label] += QUALITY_SIGNAL[profile.quality]
        logits /= profile.temperature
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        probs.append(p)
    return StreamStep(t=t, true_label=true_label, probs=tuple(probs), severity=severity)


def generate_stream(cfg: StreamConfig, master_seed: int | None = None):
    """Iterate steps 1..horizon."""
    for t in range(1, cfg.horizon + 1):
        yield generate_step(cfg, t, master_seed)


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
            return StreamStep(t=t, true_label=y, probs=tuple(probs), severity=sev)

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
        if pending is not None:
            yield finish(pending)
