"""Nonconformity scoring, calibration storage, thresholds and prediction sets.

The score for a candidate label combines a rank regularizer, a randomized
tie-breaking term and the total probability mass ranked strictly above the
candidate. Thresholds come from an empirical quantile of the calibration
scores; the quantile level may leave [0, 1] (the adaptive miscoverage
probability ranges over [-eta, 1+eta]), which clamps the threshold to +/-inf.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np


@dataclass(frozen=True)
class ScoreParams:
    """Hyperparameters of the nonconformity score."""

    xi: float
    k_reg: int
    n_labels: int

    def __post_init__(self):
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
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


BLOCK_SIZE = 4096  # a store's block splits in two when it passes this many scores
# scores into one block from which one numpy merge beats an insort each: insort is
# faster up to 24 scores, numpy from 32, at blocks of 100 to 4000 scores
MERGE_FROM = 32


class CalibrationStore:
    """Ascending-sorted multiset of historical nonconformity scores.

    The scores sit in contiguous float64 blocks (``array('d')``), each sorted, one
    after the other; a block splits in two when it passes ``BLOCK_SIZE``, after
    the load-factor design of G. Jenks' SortedContainers. ``_mins`` holds the
    first score of every block but the first; ``_tree``, a Fenwick tree of the block
    lengths, and ``_n``, the count, are kept only while there are two blocks or
    more. Rank, insert and the k-th score then cost O(log n + block) at any count
    n, and a score takes 8 bytes. Equal scores keep their insertion order, as with
    ``bisect.insort``: a new score goes after the equal ones (0.0 after -0.0 and the
    reverse). The constructor sorts the scores it is given, stably.

    The store reads as its ascending sequence of floats: ``len``, iteration and
    ``==`` against a list; ``scores`` is the store itself.
    """

    __slots__ = ("_blocks", "_mins", "_tree", "_n")

    def __init__(self, scores=()):
        self._blocks = [array("d", sorted(map(float, scores)))]
        if len(self._blocks[0]) > BLOCK_SIZE:
            self._split(0)
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the block minima, the Fenwick tree and the count from the blocks."""
        blocks = self._blocks
        self._mins = array("d", [block[0] for block in blocks[1:]])
        tree = array("q", map(len, blocks))
        self._n = sum(tree)
        for i in range(1, len(tree) + 1):  # node i covers blocks (i - lowbit(i), i]
            parent = i + (i & -i)
            if parent <= len(tree):
                tree[parent - 1] += tree[i - 1]
        self._tree = tree

    def _grow(self, i: int, by: int) -> None:
        """Block i gained ``by`` scores (two or more blocks)."""
        self._n += by
        tree, i = self._tree, i + 1
        while i <= len(tree):
            tree[i - 1] += by
            i += i & -i

    def _split(self, i: int) -> None:
        """Cut block i into equal pieces of ``BLOCK_SIZE // 2`` to ``BLOCK_SIZE`` scores
        (two, after one insert); the caller reindexes."""
        block = self._blocks[i]
        size = -(-len(block) // (len(block) // (BLOCK_SIZE // 2)))  # ceil(len / pieces)
        self._blocks[i:i + 1] = [block[j:j + size] for j in range(0, len(block), size)]

    def __len__(self) -> int:
        return self._n if self._mins else len(self._blocks[0])

    count = property(__len__)

    @property
    def scores(self) -> CalibrationStore:
        """The store itself, read as the ascending list of its scores."""
        return self

    def __iter__(self):
        return chain.from_iterable(self._blocks)

    def __eq__(self, other):
        if isinstance(other, (CalibrationStore, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CalibrationStore({list(self)!r})"

    def rank(self, score: float) -> int:
        """Number of stored scores below ``score`` (``bisect_left``)."""
        mins = self._mins
        if not mins:
            return bisect_left(self._blocks[0], score)
        i = bisect_left(mins, score)
        tree, offset, j = self._tree, 0, i  # offset: scores in blocks before i
        while j:
            offset += tree[j - 1]
            j &= j - 1
        return offset + bisect_left(self._blocks[i], score)

    def kth(self, k: int) -> float:
        """The (k+1)-th smallest score, 0 <= k < len."""
        if not self._mins:
            return self._blocks[0][k]
        tree, i, step = self._tree, 0, 1 << (len(self._tree).bit_length() - 1)
        while step:  # the largest i whose first i blocks hold at most k scores
            j = i + step
            if j <= len(tree) and tree[j - 1] <= k:
                i, k = j, k - tree[j - 1]
            step >>= 1
        return self._blocks[i][k]

    def insert(self, score: float) -> None:
        """Add one score after the equal ones already stored (``bisect.insort``)."""
        insert_each((self,), (float(score),))

    def merge(self, scores) -> None:
        """Add ``scores``, in the order given, as one ``insert`` each would."""
        # stable: equal scores keep their order, and go after the equal ones stored
        scores = np.sort(np.asarray(scores, dtype=float), kind="stable")
        # block i takes the scores from _mins[i - 1] (inclusive) up to _mins[i]
        cuts = [0, *scores.searchsorted(self._mins, side="left").tolist(), len(scores)]
        blocks, grown = self._blocks, []
        for i in np.flatnonzero(np.diff(cuts)).tolist():
            part, block = scores[cuts[i]:cuts[i + 1]], blocks[i]
            if len(part) < MERGE_FROM:  # in ascending order, as ``insert`` would
                for score in part.tolist():
                    insort(block, score)
            else:
                stored = np.frombuffer(block, dtype=float)
                merged = np.insert(stored, stored.searchsorted(part, side="right"), part)
                blocks[i] = array("d", merged.tobytes())
            grown.append((i, len(part)))
        over = [i for i, _ in grown if len(blocks[i]) > BLOCK_SIZE]
        if over:
            for i in reversed(over):
                self._split(i)
            self._reindex()
        elif self._mins:
            for i, by in grown:
                self._grow(i, by)


def rank_fractions(stores, scores) -> list:
    """``optimal_alpha_bar(store, score)`` for each pair, with one-block stores
    searched inline."""
    out, search = [], bisect_left
    for store, score in zip(stores, scores):
        if store._mins:
            out.append(1.0 - store.rank(score) / (store._n + 1))
        else:
            block = store._blocks[0]
            out.append(1.0 - search(block, score) / (len(block) + 1))
    return out


def insert_each(stores, scores) -> None:
    """Insert each score into its store, after the equal ones already stored (the one
    insert routine; every eager step runs it for all M stores)."""
    limit, put, where = BLOCK_SIZE, insort, bisect_right
    for store, score in zip(stores, scores):
        if store._mins:
            i = where(store._mins, score)
            block = store._blocks[i]
            put(block, score)
            store._grow(i, 1)
        else:
            i, block = 0, store._blocks[0]
            put(block, score)
        if len(block) > limit:
            store._split(i)
            store._reindex()


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
    rho = float(np.add.reduce(p[p > py]))  # ndarray.sum, without its Python wrapper
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
    asc = p.copy()
    asc.sort()  # in place: np.sort's wrapper costs more than the sort of K labels
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
    return store.kth(k - 1)


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
    store. An empty store gives 1.0 (every threshold is +inf).
    """
    return 1.0 - store.rank(true_score) / (store.count + 1)
