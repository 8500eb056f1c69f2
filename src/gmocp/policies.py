"""Online conformal policies: GMOCP, EGMOCP, MOCP, COMA and single-model ACI.

Every policy exposes ``step(probs, true_label) -> (PredictionSet, StepRecord)``,
where ``probs`` is (M, K) and ``true_label`` in [0, K), and keeps per-model
calibration stores, adaptive miscoverage levels and exponential weights. All
five run one step, ``_BasePolicy.step``, and differ only in its hooks: ``_select``
(the models a step reads), ``_predict`` (the set) and ``_update`` (weights,
levels and stores); see ``_BasePolicy``. Randomness comes from named streams
addressed by the master seed, so two policies built with the same seed consume
identical draws in identical order.

Per-step draw order (fixed, relied upon by replay tests):
  1. one tie-break uniform per model,
  2. graph rows (N uniforms per selective node, GMOCP/EGMOCP only),
  3. one uniform for node selection (GMOCP/EGMOCP with J > 1; one node needs none),
  4. one uniform for model selection (not COMA/ACI),
  5. one uniform for the voting threshold (COMA only).

Deferred score log: every score goes into its model's calibration store
(``scoring.CalibrationStore``). When a step reads only its subset's stores
(GMOCP/EGMOCP with M at least ``DEFER_MODELS_PER_LINK`` times the subset bound
N, and ``track_alpha_bar`` off), it writes its M scores as one row of a
``ScoreLog``. A step reads a subset store in place, through a ``PendingView`` of
the store and its column of the log, and every store takes its pending scores in
one ``CalibrationStore.merge`` only when the log fills or ``policy.calibrations``
is read. Every read then answers as the store that one insert per score builds
(NaN scores aside), so every output is bit-identical. MOCP, COMA, ACI, tracked
alpha_bar and small pools insert each score as it comes.

Scores: a step sorts its M rows once, and every score it needs comes from that
sort through ``scoring``'s one score arithmetic: the chosen model's set, the M
stored scores, EGMOCP's set sizes for its subset (one call) and COMA's M x K
vote (one call). So a stored score equals its set's score for the true label,
ties included. MOCP updates every model in one plain loop (``MOCPPolicy._update``).

Weights: an update only subtracts from ``log_w`` (which starts at 0.0), so it
stays finite and is never rescaled. Only ``weights`` makes linear weights, as
``exp(log_w - max(log_w))`` floored at 5e-324 in one array pass, the largest
exactly 1.0; every draw reads them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapt import pinball_loss, sfogd_update, sfogd_update_err
from .graph import GraphParams, effective_subset, generate_graph, select_node
from .rng import categorical, stream_rng
from .scoring import (
    SETTING_MAX,
    CalibrationStore,
    PredictionSet,
    ScoreParams,
    all_label_scores,
    all_model_scores,
    build_prediction_set,
    check_settings,
    insert_each,
    optimal_alpha_bar,
    prediction_set_size,
    quantile_threshold,
    rank_fractions,
)


LOG_ROWS = 256  # steps a ScoreLog holds before it merges into every store
# graph policies defer when M >= this times N: a store is then read about once in
# M/N >= 32 steps, where merging its pending scores at once beats eager inserts
DEFER_MODELS_PER_LINK = 32
LOG_TINY = math.log(math.ulp(0.0))  # exp of it is 5e-324, the smallest positive float


@dataclass(frozen=True)
class PolicyConfig:
    n_models: int
    score: ScoreParams
    graph: GraphParams | None = None
    target_alpha: float = 0.1
    eta: float = 0.05
    epsilon: float = 0.5
    beta: float = 0.0
    coma_gamma: float = 0.01
    aci_lr: float = 0.05
    alpha_init: float | None = None
    shared_u: bool = False  # one tie-break uniform per step instead of per (step, model)
    track_alpha_bar: bool = False

    def __post_init__(self):
        if self.n_models < 1:
            raise ValueError(f"n_models must be >= 1, got {self.n_models}")
        check_settings(self, "eta", "epsilon", "coma_gamma", "aci_lr", "alpha_init")
        if not 1 / SETTING_MAX <= self.target_alpha < 1:  # below, its square underflows
            raise ValueError(f"target_alpha must be in [{1 / SETTING_MAX:g}, 1), got {self.target_alpha}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0 <= self.beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.coma_gamma < 0:
            raise ValueError(f"coma_gamma must be >= 0, got {self.coma_gamma}")
        if self.aci_lr < 0:
            raise ValueError(f"aci_lr must be >= 0, got {self.aci_lr}")

    @property
    def alpha0(self) -> float:
        return self.target_alpha if self.alpha_init is None else self.alpha_init


@dataclass(frozen=True)
class StepRecord:
    """Everything the metrics layer needs about one timestep."""

    t: int
    chosen_model: int
    set_size: int
    err: int  # 1 if the true label was NOT covered
    node: int = -1
    subset: tuple = ()
    chosen_loss: float = 0.0
    wall_nanos: int = 0
    alpha_bars: tuple | None = None  # all-model alpha_bar, only when tracked


class ScoreLog:
    """A (rows, M) log of scores, one row per step, pending for the stores.

    Rows [0, rows) of column m are model m's pending scores. ``views`` reads a
    store and its pending scores in place; ``sync_all`` merges every column into
    its store and empties the log, which ``append`` does when the log fills.
    ``stores`` is the policy's list of stores, shared: a store put in it after a
    ``sync_all`` receives only the scores written after.
    """

    def __init__(self, stores: list, rows: int = LOG_ROWS):
        self.stores = stores
        self._log = np.empty((rows, len(stores)))
        self._rows = 0  # rows written since the log was last emptied

    def append(self, scores) -> None:
        self._log[self._rows] = scores
        self._rows += 1
        if self._rows == len(self._log):
            self.sync_all()

    def views(self, models) -> dict:
        """{m: model m's store as it would read with every pending score merged}."""
        log, stores = self._log[:self._rows], self.stores
        return {m: PendingView(stores[m], log[:, m]) for m in models}

    def sync_all(self) -> None:
        if self._rows:
            for store, column in zip(self.stores, self._log[:self._rows].T):
                store.merge(column)
            self._rows = 0


class PendingView:
    """A store and its pending scores, read as the store that merging them would make.

    ``len``, ``rank`` and ``kth`` answer as ``CalibrationStore``'s do after
    ``store.merge(pending)`` (as the store, with none pending), floats bit for bit:
    the pending scores sort stably, after the equal ones stored. Nothing is merged.
    """

    __slots__ = ("store", "pending", "_sorted")

    def __init__(self, store: CalibrationStore, pending: np.ndarray):
        self.store, self.pending, self._sorted = store, pending, None

    def __len__(self) -> int:
        return len(self.store) + len(self.pending)

    def rank(self, score: float) -> int:
        return self.store.rank(score) + int(np.count_nonzero(self.pending < score))

    def kth(self, k: int) -> float:
        """The (k+1)-th smallest of the store and the pending scores, 0 <= k < len:
        a binary search over j, the number of the first k+1 that are pending."""
        if self._sorted is None:
            self._sorted = np.sort(self.pending, kind="stable").tolist()
        pending, kth = self._sorted, self.store.kth
        lo, hi = max(0, k + 1 - len(self.store)), min(len(pending), k + 1)
        while lo < hi:  # the largest j whose j-th pending score sorts before stored k+1-j
            j = (lo + hi + 1) >> 1
            if pending[j - 1] < kth(k + 1 - j):
                lo = j
            else:
                hi = j - 1
        if lo == 0:
            return kth(k)
        if lo == k + 1:
            return pending[k]
        stored, last = kth(k - lo), pending[lo - 1]
        return last if stored <= last else stored


class _BasePolicy:
    """Per-model state: log weights ``log_w``, levels ``alphas``, their SF-OGD sums of
    squared gradients ``grad_sq`` (all float lists) and score stores ``calibrations``.

    ``step`` is every policy's step: ``_draw_u``, ``_select``, the stores the hooks
    read (``_stores``, or with a log the subset's views), sort the rows (``asc``),
    ``_predict``, test the true label, score the true label under every model,
    ``_update``, and build the ``StepRecord``. A subclass supplies ``_select`` and
    may replace the other hooks: GMOCP and MOCP predict from the chosen model, COMA
    by a vote and ACI from model 0. An update only subtracts from ``log_w``. A
    subclass whose steps read only a subset of the stores may set ``_log``.
    """

    reads_model_0_only = False  # ACI: a stream with any number of models will do

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        self.cfg = cfg
        self.t = 0
        m = cfg.n_models
        self.log_w = [0.0] * m
        self.alphas = [cfg.alpha0] * m
        self.grad_sq = [0.0] * m
        self._stores = [CalibrationStore() for _ in range(m)]
        self._log = None  # a ScoreLog over _stores, or None to insert every score at once
        self._rng_u = stream_rng(master_seed, f"{self.name}/tiebreak")

    @property
    def calibrations(self) -> list:
        """Every model's store, holding every score so far; a store put in the list
        receives the scores of later steps. With a deferred log, the list is
        brought up to date when this property is read, so read it again after
        a step rather than keep it."""
        if self._log is not None:
            self._log.sync_all()
        return self._stores

    @property
    def weights(self) -> np.ndarray:
        """``exp(log_w - max(log_w))`` floored at 5e-324: all positive, the largest 1.0."""
        lw = np.array(self.log_w)
        lw -= max(self.log_w)
        np.maximum(lw, LOG_TINY, out=lw)
        return np.exp(lw, out=lw)

    def _checked(self, probs, true_label: int) -> np.ndarray:
        """``probs`` as a float array (only row 0 for ACI); a shape other than (M, K)
        or a label outside [0, K) raises ``ValueError``."""
        probs = np.asarray(probs, dtype=float)
        m, k = self.cfg.n_models, self.cfg.score.n_labels
        if self.reads_model_0_only and probs.ndim == 2 and len(probs):
            m = len(probs)
        if probs.shape != (m, k):
            raise ValueError(f"{self.name}: probs has shape {probs.shape}, expected ({m}, {k})")
        if not 0 <= true_label < k:
            raise ValueError(f"{self.name}: true_label {true_label} outside [0, {k})")
        return probs[:1] if self.reads_model_0_only else probs

    def _draw_u(self) -> np.ndarray:
        """Per-model tie-break uniforms (a single shared draw when configured)."""
        if self.cfg.shared_u:
            return np.full(self.cfg.n_models, self._rng_u.random())
        return self._rng_u.random(self.cfg.n_models)

    def _select(self):
        """(node, subset, its inclusion probabilities or () if unread, chosen model)."""
        raise NotImplementedError

    def _predict(self, probs, asc, u_vec, chosen, stores):
        """This step's prediction set: the chosen model's set at its level."""
        thr = quantile_threshold(stores[chosen], self.alphas[chosen])
        return build_prediction_set(probs[chosen], thr, u_vec[chosen], self.cfg.score, asc[chosen])

    def _update(self, asc, u_vec, scores, err, subset, inclusion, chosen, stores):
        """Size the subset's sets at their levels when beta > 0, update the subset's
        weights and levels, then store every model's score of the true label
        (``scores``); returns the chosen model's loss and, when tracked, every
        model's alpha_bar."""
        cfg = self.cfg
        log_w, alphas, grad_sq = self.log_w, self.alphas, self.grad_sq
        values = scores.tolist()  # Python floats: bisect compares them faster than np.float64
        alpha_bars = tuple(rank_fractions(stores, values)) if cfg.track_alpha_bar else None

        target, eta, beta, epsilon = cfg.target_alpha, cfg.eta, cfg.beta, cfg.epsilon
        if beta > 0.0:  # a set's size does not depend on label order: sort order will do
            rows = list(subset)
            sizes = dict(zip(subset, prediction_set_size(
                asc[rows], [quantile_threshold(stores[m], alphas[m]) for m in subset],
                u_vec[rows], cfg.score)))
        for m, q in zip(subset, inclusion):
            alpha = alphas[m]
            a_bar = (alpha_bars[m] if alpha_bars is not None
                     else optimal_alpha_bar(stores[m], values[m]))
            loss = pinball_loss(a_bar, alpha, target)
            if m == chosen:
                chosen_loss = loss
            exponent = (1.0 - beta) * (loss / q) / self.loss_scale
            if beta > 0.0:
                exponent += beta * sizes[m]
            log_w[m] -= epsilon * exponent
            alphas[m], grad_sq[m] = sfogd_update(alpha, grad_sq[m], a_bar, target, eta)

        if self._log is None:
            insert_each(self._stores, values)
        else:
            self._log.append(scores)
        return chosen_loss, alpha_bars

    def step(self, probs, true_label: int):
        start = time.perf_counter_ns()
        probs = self._checked(probs, true_label)
        self.t += 1
        u_vec = self._draw_u()
        node, subset, inclusion, chosen = self._select()
        # the stores the hooks read: every one, or the subset's as views of the log
        stores = self._stores if self._log is None else self._log.views(subset)
        asc = probs.copy()
        asc.sort()  # one sort of every row, from which every score of the step reads
        pred = self._predict(probs, asc, u_vec, chosen, stores)
        err = int(true_label not in pred.labels)
        scores = all_model_scores(probs, true_label, u_vec, self.cfg.score, asc)
        chosen_loss, alpha_bars = self._update(asc, u_vec, scores, err, subset, inclusion, chosen,
                                               stores)
        record = StepRecord(t=self.t, chosen_model=chosen, set_size=pred.size, err=err,
                            node=node, subset=subset, chosen_loss=chosen_loss,
                            wall_nanos=time.perf_counter_ns() - start, alpha_bars=alpha_bars)
        return pred, record


class GMOCPPolicy(_BasePolicy):
    """Graph-based multi-model online conformal prediction.

    With ``cfg.beta > 0`` the weight update also penalizes the set size each
    updated model would have produced at its current level (the efficient
    variant); ``beta == 0`` recovers the plain bandit-feedback update. Both
    consume the exact same random draws.
    """

    name = "gmocp"

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        if cfg.graph is None:
            raise ValueError("GMOCP requires graph parameters")
        super().__init__(cfg, master_seed)
        self._rng_graph = stream_rng(master_seed, f"{self.name}/graph")
        self._rng_node = stream_rng(master_seed, f"{self.name}/node")
        self._rng_model = stream_rng(master_seed, f"{self.name}/model")
        # mixability scale: halve the importance-weighted loss per doubling of J
        self.loss_scale = 2.0 ** math.floor(math.log2(cfg.graph.n_selective))
        # a step reads at most N stores, so each is read about every M/N steps
        if not cfg.track_alpha_bar and cfg.n_models >= DEFER_MODELS_PER_LINK * cfg.graph.max_links:
            self._log = ScoreLog(self._stores)

    def _select(self):
        w = self.weights
        graph = generate_graph(w, self.cfg.graph, self._rng_graph)
        node = select_node(graph, self._rng_node)
        subset = effective_subset(graph, node)

        draw = self._rng_model.random()
        if len(subset) == 1:
            chosen = subset[0]
        else:
            cdf = np.cumsum(w.take(subset))
            idx = int(np.searchsorted(cdf, draw * cdf[-1], side="right"))
            chosen = subset[min(idx, len(subset) - 1)]
        return node, subset, [graph.inclusion_of(m) for m in subset], chosen

    step = _BasePolicy.step  # an own attribute, so perfbench's tracer can wrap it


class MOCPPolicy(_BasePolicy):
    """Full-information multi-model baseline: no graph, every model updates."""

    name = "mocp"

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        super().__init__(cfg, master_seed)
        self._rng_model = stream_rng(master_seed, f"{self.name}/model")
        self._subset = tuple(range(cfg.n_models))

    def _select(self):
        w = self.weights
        return -1, self._subset, (), categorical(self._rng_model, w / w.sum())

    def _update(self, asc, u_vec, scores, err, subset, inclusion, chosen, stores):
        """``_BasePolicy._update`` for every model, with the helpers written out.

        Inclusion is 1, the loss scale 1 and there is no set-size penalty, so a model's
        exponent is its loss. Each line rounds as the helper it stands for: ``pinball_loss``,
        ``sfogd_update``. Every store is ranked (``rank_fractions``, each store at its
        own count: a store put in ``calibrations`` may hold any number of scores)
        before any score goes in, as in the base update.
        """
        cfg = self.cfg
        target, eta, epsilon = cfg.target_alpha, cfg.eta, cfg.epsilon
        log_w, alphas, grad_sq, sqrt = self.log_w, self.alphas, self.grad_sq, math.sqrt
        values = scores.tolist()
        a_bars = rank_fractions(stores, values)
        for m, a_bar in enumerate(a_bars):
            alpha = alphas[m]
            diff = a_bar - alpha
            loss = target * diff - (diff if diff < 0.0 else 0.0)
            if m == chosen:
                chosen_loss = loss
            log_w[m] -= epsilon * loss
            g = (1.0 if a_bar < alpha else 0.0) - target
            gs = grad_sq[m] + g * g
            grad_sq[m] = gs
            alphas[m] = alpha - eta * g / sqrt(gs)
        insert_each(stores, values)
        return chosen_loss, tuple(a_bars) if cfg.track_alpha_bar else None

    step = _BasePolicy.step  # an own attribute, so perfbench's tracer can wrap it


def vote_set(membership: np.ndarray, weights_norm: np.ndarray, vote_u: float) -> frozenset:
    """Labels whose weighted vote exceeds the randomized majority threshold;
    ``membership`` is (M, K) boolean: model m includes label k."""
    tally = weights_norm @ membership
    return frozenset(np.flatnonzero(tally > (1.0 + vote_u) / 2.0).tolist())


class COMAPolicy(_BasePolicy):
    """Weighted-majority vote over per-model sets at one shared adaptive level,
    ``shared_alpha``, with its SF-OGD sum of squared gradients ``shared_grad_sq``."""

    name = "coma"

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        super().__init__(cfg, master_seed)
        self.shared_alpha, self.shared_grad_sq = cfg.alpha0, 0.0
        self._rng_vote = stream_rng(master_seed, f"{self.name}/vote")
        self._subset = tuple(range(cfg.n_models))

    def _select(self):
        return -1, self._subset, (), -1

    def _predict(self, probs, asc, u_vec, chosen, stores):
        """The vote over every model's set at the shared level; then each model's
        log weight falls by ``coma_gamma`` times the size of its set."""
        thresholds = [quantile_threshold(store, self.shared_alpha) for store in stores]
        membership = (all_label_scores(probs, u_vec, self.cfg.score, asc)
                      <= np.array(thresholds)[:, None])
        weights = self.weights
        pred = PredictionSet(vote_set(membership, weights / weights.sum(),
                                      float(self._rng_vote.random())))
        gamma = self.cfg.coma_gamma
        self.log_w = [lw - gamma * size
                      for lw, size in zip(self.log_w, membership.sum(axis=1).tolist())]
        return pred

    def _update(self, asc, u_vec, scores, err, subset, inclusion, chosen, stores):
        """Store every model's score; move the shared level by this step's miss."""
        cfg = self.cfg
        insert_each(stores, scores.tolist())
        self.shared_alpha, self.shared_grad_sq = sfogd_update_err(
            self.shared_alpha, self.shared_grad_sq, err, cfg.target_alpha, cfg.eta)
        return 0.0, None

    step = _BasePolicy.step  # an own attribute, so perfbench's tracer can wrap it


class ACIPolicy(_BasePolicy):
    """Single-model ACI: the level ``alphas[0]`` moves by the fixed step ``aci_lr``."""

    name = "aci"
    reads_model_0_only = True

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        if cfg.n_models != 1:
            raise ValueError("ACI is single-model; set n_models=1")
        super().__init__(cfg, master_seed)

    def _select(self):
        return -1, (0,), (), 0

    def _update(self, asc, u_vec, scores, err, subset, inclusion, chosen, stores):
        """Store model 0's score; move its level by ``aci_lr`` toward the target."""
        cfg = self.cfg
        stores[0].insert(scores[0])
        self.alphas[0] += cfg.aci_lr * (cfg.target_alpha - err)
        return 0.0, None

    step = _BasePolicy.step  # an own attribute, so perfbench's tracer can wrap it


POLICIES = {"gmocp": GMOCPPolicy, "egmocp": GMOCPPolicy, "mocp": MOCPPolicy,
            "coma": COMAPolicy, "aci": ACIPolicy}
POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str, cfg: PolicyConfig, master_seed: int):
    """Instantiate a policy by CLI name. ``egmocp`` is GMOCP with beta > 0."""
    if name not in POLICIES:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    if name == "gmocp":
        cfg = replace(cfg, beta=0.0)
    elif name == "egmocp" and cfg.beta == 0.0:
        raise ValueError("egmocp requires beta > 0")
    return POLICIES[name](cfg, master_seed)
