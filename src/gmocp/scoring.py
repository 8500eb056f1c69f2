"""Nonconformity scoring, calibration storage, thresholds and prediction sets.

The score for a candidate label combines a rank regularizer, a randomized
tie-breaking term and the total probability mass ranked strictly above the
candidate. Thresholds come from an empirical quantile of the calibration
scores; the quantile level may leave [0, 1] (the adaptive miscoverage
probability ranges over [-eta, 1+eta]), which clamps the threshold to +/-inf.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class ScoreParams:
    """Hyperparameters of the nonconformity score."""

    xi: float
    k_reg: int
    n_labels: int

    def __post_init__(self):
        if self.xi < 0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if self.n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {self.n_labels}")
        # k_reg above n_labels is harmless (the rank penalty clamps at zero)
        if self.k_reg < 0:
            raise ValueError(f"k_reg must be >= 0, got {self.k_reg}")

    @cached_property
    def rank_penalty(self) -> np.ndarray:
        """``xi * sqrt(max(k - k_reg, 0))`` for every rank k in [0, n_labels], computed
        as the vectorized scores compute it, so indexing it gives the same floats."""
        penalty = self.xi * np.sqrt(np.maximum(np.arange(self.n_labels + 1) - self.k_reg, 0))
        penalty.flags.writeable = False
        return penalty


@dataclass(frozen=True)
class PredictionSet:
    labels: frozenset

    @property
    def size(self) -> int:
        return len(self.labels)

    def __contains__(self, label: int) -> bool:
        return label in self.labels


@dataclass
class CalibrationStore:
    """Ascending-sorted multiset of historical nonconformity scores."""

    scores: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.scores)

    def insert(self, score: float) -> None:
        bisect.insort(self.scores, float(score))


def validate_prob_vector(p: np.ndarray, n_labels: int, tol: float = 1e-6) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (n_labels,):
        raise ValueError(f"probability vector has length {p.shape}, expected ({n_labels},)")
    if not np.isfinite(p).all():
        raise ValueError("probability vector has non-finite entries")
    if np.any(p < 0):
        raise ValueError("probability vector has negative entries")
    if abs(float(p.sum()) - 1.0) > tol:
        raise ValueError(f"probability vector sums to {p.sum()}, not 1")
    return p


def nonconformity_score(p: np.ndarray, y: int, u: float, params: ScoreParams) -> float:
    """Score of candidate label y given model probabilities p and tie-break u.

    Rank counts ties as at-or-above (>=); the accumulated mass above uses
    strictly-greater probabilities only.
    """
    p = np.asarray(p, dtype=float)
    if not 0 <= y < params.n_labels:
        raise ValueError(f"label {y} out of range [0, {params.n_labels})")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    py = float(p[y])
    k_y = int(np.count_nonzero(p >= py))
    rho = float(p[p > py].sum())
    return params.xi * math.sqrt(max(k_y - params.k_reg, 0)) + u * py + rho


def all_label_scores(p: np.ndarray, u, params: ScoreParams) -> np.ndarray:
    """Vectorized nonconformity_score over every candidate label.

    ``p`` is one probability vector (K,) with a scalar ``u``, or S of them (S, K) with
    one tie-break each in ``u`` (S,); each row of the (S, K) result equals, bit for
    bit, the (K,) result for that row alone. K is at most ``params.n_labels``.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 2:
        return _label_scores_of_rows(p, np.asarray(u, dtype=float)[:, None], params)
    n = len(p)
    asc = np.sort(p)
    # count of entries >= p[y] (ties inclusive)
    k = n - asc.searchsorted(p, side="left")
    # mass of entries strictly greater than p[y]
    csum = np.zeros(n + 1)
    asc.cumsum(out=csum[1:])
    rho = csum[n] - csum[asc.searchsorted(p, side="right")]
    return params.rank_penalty[k] + u * p + rho


def _label_scores_of_rows(p: np.ndarray, u: np.ndarray, params: ScoreParams) -> np.ndarray:
    """``all_label_scores`` of each row of ``p`` (S, K), with tie-breaks ``u`` (S, 1)."""
    rows, n = p.shape
    asc = np.sort(p, axis=1)
    # complex numbers order by (real, imag): keys (row, value) put the rows one after
    # another, each in ascending order, so one search ranks every row in its own row
    keys = np.empty((rows, n), dtype=complex)
    keys.real = np.arange(rows)[:, None]
    keys.imag = asc
    queries = keys.copy()
    queries.imag = p
    keys, queries = keys.ravel(), queries.ravel()
    offset = np.arange(0, rows * n, n)[:, None]
    k = n - (np.searchsorted(keys, queries, side="left").reshape(rows, n) - offset)
    right = np.searchsorted(keys, queries, side="right").reshape(rows, n) - offset
    csum = np.zeros((rows, n + 1))
    np.cumsum(asc, axis=1, out=csum[:, 1:])
    rho = csum[:, -1:] - np.take_along_axis(csum, right, axis=1)
    return params.rank_penalty[k] + u * p + rho


def all_model_scores(probs: np.ndarray, y: int, u_vec: np.ndarray, params: ScoreParams) -> np.ndarray:
    """nonconformity_score of the true label under every model at once.

    probs is (M, K); u_vec holds one tie-break uniform per model.
    """
    probs = np.asarray(probs, dtype=float)
    py = probs[:, y]
    column = py[:, None]
    k_y = (probs >= column).sum(axis=1)
    rho = np.where(probs > column, probs, 0.0).sum(axis=1)
    return params.rank_penalty[k_y] + u_vec * py + rho


def quantile_threshold(store: CalibrationStore, alpha: float) -> float:
    """Empirical-quantile threshold at miscoverage alpha.

    With n calibration scores and t = n + 1, the level is ceil(t(1-alpha))/n.
    Levels above 1 (or an empty store) give +inf, levels at or below 0 give
    -inf; otherwise the k-th smallest score with k = ceil(t(1-alpha)).
    """
    n = store.count
    t = n + 1
    k = math.ceil(t * (1.0 - alpha))
    if n == 0 or k > n:
        return math.inf
    if k <= 0:
        return -math.inf
    return store.scores[k - 1]


def build_prediction_set(p: np.ndarray, threshold: float, u: float, params: ScoreParams) -> PredictionSet:
    """All labels whose score is at most the threshold (shared u across labels)."""
    scores = all_label_scores(p, u, params)
    return PredictionSet(frozenset((scores <= threshold).nonzero()[0].tolist()))


def prediction_set_size(p: np.ndarray, threshold: float, u: float, params: ScoreParams) -> int:
    """Size of build_prediction_set without materializing the label set."""
    return int(np.count_nonzero(all_label_scores(p, u, params) <= threshold))


def optimal_alpha_bar(store: CalibrationStore, true_score: float) -> float:
    """Supremum of miscoverage levels whose threshold still covers true_score.

    Inverts the quantile level from the rank of true_score in the sorted
    store. Empty store: 1.0 by convention (every threshold is +inf).
    """
    n = store.count
    if n == 0:
        return 1.0
    t = n + 1
    # 1-based index of the first stored score >= true_score; n+1 if none
    r = bisect.bisect_left(store.scores, true_score) + 1
    return 1.0 - (r - 1) / t
