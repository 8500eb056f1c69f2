"""Nonconformity scoring, calibration storage, thresholds and prediction sets.

The score of label y under probabilities p (K,) with tie-break u is a rank
regularizer, ``xi * sqrt(max(k - k_reg, 0))`` with k = count(p >= p[y]), plus
``u * p[y]``, plus the mass strictly above p[y]. Every score, a set's or a stored
one, comes from one arithmetic (``_scores``) on the ascending row and its running
sum acc: the mass above is ``acc[K-1] - acc[last]``, where last ends y's ties. A
set is scored on the sorted row and ``argsort`` names its labels, so a set and the
store it is compared with agree bit for bit, ties included. Thresholds come from
an empirical quantile of the calibration scores; the quantile level may leave
[0, 1] (the adaptive miscoverage probability ranges over [-eta, 1+eta]), which
clamps the threshold to +/-inf.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np


# the largest magnitude of a real-valued setting (xi here; eta, epsilon, coma_gamma,
# aci_lr and alpha_init in policies.PolicyConfig; noise_scale and temperature in
# streams.ModelProfile), and 1 / SETTING_MAX the least temperature and target_alpha:
# levels, losses, scores, log weights and logits then stay far inside float range
SETTING_MAX = 1e100


def check_settings(owner, *keys) -> None:
    """Each setting ``keys`` of ``owner`` is None, or finite and at most SETTING_MAX in magnitude."""
    for key in keys:
        value = getattr(owner, key)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if value is not None and abs(value) > SETTING_MAX:
            raise ValueError(f"{key} must be at most {SETTING_MAX:g} in magnitude, got {value}")


@dataclass(frozen=True)
class ScoreParams:
    """Hyperparameters of the nonconformity score."""

    xi: float
    k_reg: int
    n_labels: int

    def __post_init__(self):
        check_settings(self, "xi")
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

    def _grow(self, i: int) -> None:
        """Block i gained one score (two or more blocks)."""
        self._n += 1
        tree, i = self._tree, i + 1
        while i <= len(tree):
            tree[i - 1] += 1
            i += i & -i

    def _split(self, i: int) -> None:
        """Cut block i into equal pieces of ``BLOCK_SIZE // 2`` to ``BLOCK_SIZE`` scores
        (two, after one insert); the caller reindexes."""
        block = self._blocks[i]
        size = -(-len(block) // (len(block) // (BLOCK_SIZE // 2)))  # ceil(len / pieces)
        self._blocks[i:i + 1] = [block[j:j + size] for j in range(0, len(block), size)]

    def __len__(self) -> int:
        return self._n if self._mins else len(self._blocks[0])

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
        blocks, grown = self._blocks, np.flatnonzero(np.diff(cuts)).tolist()
        for i in grown:
            part, block = scores[cuts[i]:cuts[i + 1]], blocks[i]
            if len(part) < MERGE_FROM:  # in ascending order, as ``insert`` would
                for score in part.tolist():
                    insort(block, score)
            else:
                stored = np.frombuffer(block, dtype=float)
                merged = np.insert(stored, stored.searchsorted(part, side="right"), part)
                blocks[i] = array("d", merged.tobytes())
        for i in reversed(grown):
            if len(blocks[i]) > BLOCK_SIZE:
                self._split(i)
        if len(blocks) > 1:
            self._reindex()


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
            store._grow(i)
        else:
            i, block = 0, store._blocks[0]
            put(block, score)
        if len(block) > limit:
            store._split(i)
            store._reindex()


def _scores(p, u, k, total, below, params: ScoreParams) -> np.ndarray:
    """The one score arithmetic, ``rank_penalty[k] + u * p + (total - below)``: p has
    rank k = count(>= p) in its row, and total and below are the running sums of the
    ascending row at its end and at the last of p's ties."""
    return params.rank_penalty[k] + u * p + (total - below)


def _sorted_scores(asc: np.ndarray, u: np.ndarray, params: ScoreParams) -> np.ndarray:
    """The score of each entry of the ascending rows ``asc`` (S, K), tie-breaks ``u``
    (S, 1). An entry's tie group starts at the last group start at or before it,
    which gives its rank k, and ends at the first group end at or after it."""
    rows, n = asc.shape
    starts = np.ones((rows, n + 1), dtype=bool)  # a tie group starts at position j
    np.not_equal(asc[:, 1:], asc[:, :-1], out=starts[:, 1:-1])
    k = np.minimum.accumulate(np.where(starts[:, :-1], np.arange(n, 0, -1), n), axis=1)
    flat = np.arange(rows * n).reshape(rows, n)[:, ::-1]  # positions in the raveled rows
    last = np.minimum.accumulate(np.where(starts[:, :0:-1], flat, rows * n), axis=1)[:, ::-1]
    acc = np.add.accumulate(asc, axis=1)
    return _scores(asc, u, k, acc[:, -1:], acc.ravel()[last], params)


def all_label_scores(p: np.ndarray, u, params: ScoreParams, asc=None) -> np.ndarray:
    """The nonconformity score of every candidate label, in label order: ``p``
    is one row (K,) with a scalar ``u``, or S rows (S, K) with one tie-break each in
    ``u`` (S,), and every shape goes through the one (S, K) kernel. K is at most
    ``params.n_labels``; ``asc``, if the caller has it, is ``np.sort(p)``."""
    p = np.asarray(p, dtype=float)
    rows = p.reshape(-1, p.shape[-1])
    asc = np.sort(rows) if asc is None else asc.reshape(rows.shape)
    scores = np.empty_like(rows)
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    scores[np.arange(len(rows))[:, None], rows.argsort(axis=1)] = _sorted_scores(asc, u, params)
    return scores.reshape(p.shape)


def all_model_scores(probs: np.ndarray, y: int, u_vec: np.ndarray, params: ScoreParams,
                     asc=None) -> np.ndarray:
    """The nonconformity score of label y under every model at once: probs is
    (M, K), ``asc`` its ``np.sort`` if the caller has it, u_vec (M,)."""
    probs = np.asarray(probs, dtype=float)
    asc = np.sort(probs) if asc is None else asc
    py, count = probs[:, y], np.add.reduce  # ndarray.sum, without its Python wrapper
    col, acc = py[:, None], np.add.accumulate(asc, axis=1)
    last = count(probs <= col, axis=1) + np.arange(-1, probs.size - 1, probs.shape[1])
    return _scores(py, u_vec, count(probs >= col, axis=1), acc[:, -1], acc.ravel()[last], params)


def quantile_threshold(store: CalibrationStore, alpha: float) -> float:
    """Empirical-quantile threshold at miscoverage alpha.

    With n calibration scores and t = n + 1, the level is ceil(t(1-alpha))/n.
    Levels above 1 (or an empty store) give +inf, levels at or below 0 give
    -inf; otherwise the k-th smallest score with k = ceil(t(1-alpha)). An alpha
    at or below 0 (at or above 1) is settled before the product, which could
    overflow: its level is above 1 (at or below 0) at every n.
    """
    n = len(store)
    if n == 0 or alpha <= 0.0:
        return math.inf
    if alpha >= 1.0:
        return -math.inf
    k = math.ceil((n + 1) * (1.0 - alpha))  # at least 1, as 1 - alpha > 0
    return math.inf if k > n else store.kth(k - 1)


def build_prediction_set(p: np.ndarray, threshold: float, u: float, params: ScoreParams,
                         asc=None) -> PredictionSet:
    """All labels whose score is at most the threshold (shared u across labels), scored
    on the sorted row ``asc`` (``np.sort(p)``): it is searched for its own entries, and
    ``p.argsort()`` names the labels of the sorted positions inside the threshold."""
    p = np.asarray(p, dtype=float)
    asc = np.sort(p) if asc is None else asc
    acc, k = np.add.accumulate(asc), len(asc) - asc.searchsorted(asc, side="left")
    scores = _scores(asc, u, k, acc[-1], acc[asc.searchsorted(asc, side="right") - 1], params)
    return PredictionSet(frozenset(p.argsort()[scores <= threshold].tolist()))


def prediction_set_size(p: np.ndarray, threshold, u, params: ScoreParams):
    """Size of build_prediction_set without the label set: an int for one row (K,),
    or a list of S sizes for S rows (S, K) with S thresholds and S tie-breaks. A
    size does not depend on the order of the labels, so a row may come sorted."""
    asc = np.sort(np.asarray(p, dtype=float))
    scores = _sorted_scores(asc.reshape(-1, asc.shape[-1]), np.asarray(u)[..., None], params)
    sizes = np.add.reduce(scores <= np.asarray(threshold)[..., None], axis=1).tolist()
    return sizes if asc.ndim == 2 else sizes[0]


def optimal_alpha_bar(store: CalibrationStore, true_score: float) -> float:
    """Supremum of miscoverage levels whose threshold still covers true_score.

    Inverts the quantile level from the rank of true_score in the sorted
    store. An empty store gives 1.0 (every threshold is +inf).
    """
    return 1.0 - store.rank(true_score) / (len(store) + 1)
