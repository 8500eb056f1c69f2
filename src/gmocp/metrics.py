"""Run-level metrics and the hindsight regret comparator.

Coverage-style metrics are simple aggregates over per-step records. The
regret comparator exploits that for a fixed model the cumulative pinball
loss is a convex piecewise-linear function of a constant level alpha, so
the minimum lies on a kink (a realized alpha_bar value) or an endpoint of
the feasible interval and can be evaluated exactly with prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RunMetrics:
    coverage: float  # percent of steps whose set contained the truth
    avg_width: float  # mean prediction-set size
    single_width: float  # percent of steps with a covering singleton set
    width_under_k: float  # percent of covering steps with set size below the cap
    local_coverage: tuple  # per-window coverage fractions
    n_steps: int


def compute_metrics(records, window: int = 100, width_cap: int = 40) -> RunMetrics:
    """Aggregate per-step records into run metrics.

    Local coverage uses consecutive non-overlapping windows; a window must be
    complete to count.
    """
    if not records:
        raise ValueError("no records to aggregate")
    err = np.array([r.err for r in records], dtype=float)
    size = np.array([r.set_size for r in records], dtype=float)
    covered = 1.0 - err
    n = len(records)

    starts = range(0, n - window + 1, window)
    local = tuple(float(covered[s:s + window].mean()) for s in starts)

    return RunMetrics(
        coverage=100.0 * float(covered.mean()),
        avg_width=float(size.mean()),
        single_width=100.0 * float(np.mean((size == 1) & (covered == 1))),
        width_under_k=100.0 * float(np.mean((size < width_cap) & (covered == 1))),
        local_coverage=local,
        n_steps=n,
    )


def best_constant_loss(alpha_bars: np.ndarray, target_alpha: float,
                       lo: float, hi: float) -> tuple:
    """Minimum over constant alpha in [lo, hi] of the cumulative pinball loss.

    Returns (loss, argmin). Exact: evaluates every kink inside the interval
    plus both endpoints via prefix sums over the sorted alpha_bar values.
    """
    ab = np.sort(np.asarray(alpha_bars, dtype=float))
    t = len(ab)
    prefix = np.concatenate(([0.0], np.cumsum(ab)))
    total = prefix[-1]

    inside = ab[(ab > lo) & (ab < hi)]
    cands = np.concatenate(([lo], inside, [hi]))
    # k = how many alpha_bars lie strictly below each candidate
    k = np.searchsorted(ab, cands, side="left")
    losses = target_alpha * (total - t * cands) + (k * cands - prefix[k])
    i = int(np.argmin(losses))
    return float(losses[i]), float(cands[i])


def hindsight_regret(chosen_losses, alpha_bar_matrix, target_alpha: float,
                     eta: float) -> float:
    """Cumulative chosen-model loss minus the best fixed (model, level) pair.

    alpha_bar_matrix is (T, M): realized optimal levels of every model at
    every step. The comparator level ranges over [-eta, 1 + eta].
    """
    ab = np.asarray(alpha_bar_matrix, dtype=float)
    if ab.ndim != 2:
        raise ValueError("alpha_bar_matrix must be (T, M)")
    best = min(
        best_constant_loss(ab[:, m], target_alpha, -eta, 1.0 + eta)[0]
        for m in range(ab.shape[1])
    )
    return float(np.sum(chosen_losses)) - best
