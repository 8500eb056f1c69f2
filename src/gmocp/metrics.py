"""Run-level metrics and the hindsight regret comparator.

The four run metrics (coverage, mean set size, covering singletons and
covering sets below the width cap) are counts over per-step records, taken in
one pass. The regret comparator exploits that for a fixed model the
cumulative pinball loss is a convex piecewise-linear function of a constant
level alpha, so the minimum lies on a kink (a realized alpha_bar value) or an
endpoint of the feasible interval and can be evaluated exactly with prefix
sums.
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
    n_steps: int


def compute_metrics(records, width_cap: int = 40) -> RunMetrics:
    """Aggregate per-step records into run metrics, in one pass.

    ``records`` is any iterable of ``StepRecord`` (``err`` 0 or 1), consumed
    once and kept nowhere, so a run's memory does not grow with its length.
    The counts are Python ints divided once at the end, which gives the same
    floats as the means of 0/1 arrays.
    """
    n = covered = size_sum = singles = under_cap = 0
    for r in records:
        n += 1
        size_sum += r.set_size
        if not r.err:
            covered += 1
            singles += r.set_size == 1
            under_cap += r.set_size < width_cap
    if not n:
        raise ValueError("no records to aggregate")
    return RunMetrics(
        coverage=100.0 * (covered / n),
        avg_width=size_sum / n,
        single_width=100.0 * (singles / n),
        width_under_k=100.0 * (under_cap / n),
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
