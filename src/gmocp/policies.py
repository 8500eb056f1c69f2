"""Online conformal policies: GMOCP, EGMOCP, MOCP, COMA and single-model ACI.

Every policy exposes ``step(probs, true_label) -> (PredictionSet, StepRecord)``,
where ``probs`` is (M, K) and ``true_label`` in [0, K), and keeps per-model
calibration stores, adaptive miscoverage levels and exponential weights.
Randomness comes from named streams addressed by the master seed, so two
policies built with the same seed consume identical draws in identical order.

Per-step draw order (fixed, relied upon by replay tests):
  1. one tie-break uniform per model,
  2. graph rows (N uniforms per selective node, GMOCP/EGMOCP only),
  3. one uniform for node selection (GMOCP/EGMOCP only),
  4. one uniform for model selection (not COMA/ACI),
  5. one uniform for the voting threshold (COMA only).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adapt import pinball_loss, sfogd_update, sfogd_update_err
from .graph import GraphParams, effective_subset, generate_graph, select_node
from .rng import categorical, stream_rng
from .scoring import (
    CalibrationStore,
    PredictionSet,
    ScoreParams,
    all_label_scores,
    all_model_scores,
    build_prediction_set,
    nonconformity_score,
    optimal_alpha_bar,
    prediction_set_size,
    quantile_threshold,
)


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
        if not 0 < self.target_alpha < 1:
            raise ValueError(f"target_alpha must be in (0, 1), got {self.target_alpha}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0 <= self.beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")

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
    losses: dict = field(default_factory=dict)  # model -> pinball loss (updated models)
    wall_nanos: int = 0
    alpha_bars: tuple | None = None  # all-model alpha_bar, only when tracked


class _BasePolicy:
    """Per-model state: weights ``w``, levels ``alphas``, their SF-OGD sums of squared
    gradients ``grad_sq`` (all float lists) and score stores ``calibrations``.

    ``step`` is GMOCP's and MOCP's step; a subclass supplies ``_select``.
    """

    name = "base"
    loss_scale = 1.0
    reads_model_0_only = False  # ACI: a stream with any number of models will do

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        self.cfg = cfg
        self.t = 0
        m = cfg.n_models
        self.w = [1.0] * m
        self.alphas = [cfg.alpha0] * m
        self.grad_sq = [0.0] * m
        self.calibrations = [CalibrationStore() for _ in range(m)]
        self._rng_u = stream_rng(master_seed, f"{self.name}/tiebreak")

    @property
    def weights(self) -> np.ndarray:
        return np.array(self.w)

    def _rescale_weights(self) -> None:
        """Scale the weights by the power of two that puts the largest in [1, 2).

        Exact, so no normalized weight, selection CDF or node PMF changes.
        """
        shift = 1 - math.frexp(max(self.w))[1]
        if shift:
            self.w = [math.ldexp(x, shift) for x in self.w]

    def _checked(self, probs, true_label: int) -> np.ndarray:
        """``probs`` as a float array; a shape other than (M, K) or a label outside
        [0, K) raises ``ValueError``."""
        probs = np.asarray(probs, dtype=float)
        m, k = self.cfg.n_models, self.cfg.score.n_labels
        if self.reads_model_0_only and probs.ndim == 2 and len(probs):
            m = len(probs)
        if probs.shape != (m, k):
            raise ValueError(f"{self.name}: probs has shape {probs.shape}, expected ({m}, {k})")
        if not 0 <= true_label < k:
            raise ValueError(f"{self.name}: true_label {true_label} outside [0, {k})")
        return probs

    def _draw_u(self) -> np.ndarray:
        """Per-model tie-break uniforms (a single shared draw when configured)."""
        if self.cfg.shared_u:
            return np.full(self.cfg.n_models, self._rng_u.random())
        return self._rng_u.random(self.cfg.n_models)

    def _select(self):
        """(node, subset, inclusion probability of each subset model, chosen model)."""
        raise NotImplementedError

    def step(self, probs, true_label: int):
        cfg = self.cfg
        start = time.perf_counter_ns()
        probs = self._checked(probs, true_label)
        self.t += 1
        u_vec = self._draw_u()
        node, subset, inclusion, chosen = self._select()

        w, alphas, grad_sq, stores = self.w, self.alphas, self.grad_sq, self.calibrations
        threshold = quantile_threshold(stores[chosen], alphas[chosen])
        pred = build_prediction_set(probs[chosen], threshold, u_vec[chosen], cfg.score)
        err = int(true_label not in pred)

        scores = all_model_scores(probs, true_label, u_vec, cfg.score)
        alpha_bars = tuple(map(optimal_alpha_bar, stores, scores)) if cfg.track_alpha_bar else None

        target, eta, beta, epsilon = cfg.target_alpha, cfg.eta, cfg.beta, cfg.epsilon
        losses = {}
        for m, q in zip(subset, inclusion):
            alpha = alphas[m]
            a_bar = alpha_bars[m] if alpha_bars is not None else optimal_alpha_bar(
                stores[m], scores[m]
            )
            loss = pinball_loss(a_bar, alpha, target)
            losses[m] = loss
            exponent = (1.0 - beta) * (loss / q) / self.loss_scale
            if beta > 0.0:
                if m == chosen:
                    size = pred.size
                else:
                    thr = quantile_threshold(stores[m], alpha)
                    size = prediction_set_size(probs[m], thr, u_vec[m], cfg.score)
                exponent += beta * size
            w[m] *= math.exp(-epsilon * exponent)
            alphas[m], grad_sq[m] = sfogd_update(alpha, grad_sq[m], a_bar, target, eta)

        for store, score in zip(stores, scores):
            store.insert(score)
        self._rescale_weights()

        record = StepRecord(
            t=self.t,
            chosen_model=chosen,
            set_size=pred.size,
            err=err,
            node=node,
            subset=subset,
            chosen_loss=losses[chosen],
            losses=losses,
            wall_nanos=time.perf_counter_ns() - start,
            alpha_bars=alpha_bars,
        )
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

    def _select(self):
        graph = generate_graph(self.weights, self.cfg.graph, self._rng_graph)
        node = select_node(graph, self._rng_node)
        subset = effective_subset(graph, node)

        draw = self._rng_model.random()
        if len(subset) == 1:
            chosen = subset[0]
        else:
            cdf = np.cumsum(np.array([self.w[m] for m in subset]))
            idx = int(np.searchsorted(cdf, draw * cdf[-1], side="right"))
            chosen = subset[min(idx, len(subset) - 1)]
        return node, subset, [graph.inclusion_of(m) for m in subset], chosen

    step = _BasePolicy.step  # an own attribute, so perfbench's tracer can wrap it


class MOCPPolicy(_BasePolicy):
    """Full-information multi-model baseline: no graph, every model updates."""

    name = "mocp"

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        # every model is in the subset with inclusion 1, and no set-size penalty
        super().__init__(replace(cfg, beta=0.0), master_seed)
        self._rng_model = stream_rng(master_seed, f"{self.name}/model")
        self._subset = tuple(range(cfg.n_models))
        self._inclusion = (1.0,) * cfg.n_models

    def _select(self):
        w = self.weights
        return -1, self._subset, self._inclusion, categorical(self._rng_model, w / w.sum())

    step = _BasePolicy.step  # an own attribute, so perfbench's tracer can wrap it


def vote_set(membership: np.ndarray, weights_norm: np.ndarray, vote_u: float) -> frozenset:
    """Labels whose weighted vote exceeds the randomized majority threshold.

    membership is (M, K) boolean: model m includes label k.
    """
    tally = weights_norm @ membership
    return frozenset(int(k) for k in np.flatnonzero(tally > (1.0 + vote_u) / 2.0))


class COMAPolicy(_BasePolicy):
    """Weighted-majority vote over per-model sets at one shared adaptive level,
    ``shared_alpha``, with its SF-OGD sum of squared gradients ``shared_grad_sq``."""

    name = "coma"

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        super().__init__(cfg, master_seed)
        self.shared_alpha, self.shared_grad_sq = cfg.alpha0, 0.0
        self._rng_vote = stream_rng(master_seed, f"{self.name}/vote")

    def step(self, probs, true_label: int):
        cfg = self.cfg
        start = time.perf_counter_ns()
        probs = self._checked(probs, true_label)
        self.t += 1
        u_vec = self._draw_u()
        vote_u = float(self._rng_vote.random())

        k = cfg.score.n_labels
        membership = np.zeros((cfg.n_models, k), dtype=bool)
        for m, store in enumerate(self.calibrations):
            thr = quantile_threshold(store, self.shared_alpha)
            membership[m] = all_label_scores(probs[m], u_vec[m], cfg.score) <= thr

        weights = self.weights
        labels = vote_set(membership, weights / weights.sum(), vote_u)
        pred = PredictionSet(labels)
        err = int(true_label not in pred)

        scores = all_model_scores(probs, true_label, u_vec, cfg.score)
        w = self.w
        for m, store in enumerate(self.calibrations):
            w[m] *= math.exp(-cfg.coma_gamma * int(membership[m].sum()))
            store.insert(scores[m])
        self._rescale_weights()
        self.shared_alpha, self.shared_grad_sq = sfogd_update_err(
            self.shared_alpha, self.shared_grad_sq, err, cfg.target_alpha, cfg.eta)

        record = StepRecord(
            t=self.t,
            chosen_model=-1,
            set_size=pred.size,
            err=err,
            subset=tuple(range(cfg.n_models)),
            wall_nanos=time.perf_counter_ns() - start,
        )
        return pred, record


class ACIPolicy(_BasePolicy):
    """Single-model ACI: the level ``alphas[0]`` moves by the fixed step ``aci_lr``."""

    name = "aci"
    reads_model_0_only = True

    def __init__(self, cfg: PolicyConfig, master_seed: int):
        if cfg.n_models != 1:
            raise ValueError("ACI is single-model; set n_models=1")
        super().__init__(cfg, master_seed)

    def step(self, probs, true_label: int):
        cfg = self.cfg
        start = time.perf_counter_ns()
        probs = self._checked(probs, true_label)
        self.t += 1
        u = float(self._rng_u.random())
        store, alphas = self.calibrations[0], self.alphas
        threshold = quantile_threshold(store, alphas[0])
        pred = build_prediction_set(probs[0], threshold, u, cfg.score)
        err = int(true_label not in pred)
        store.insert(nonconformity_score(probs[0], true_label, u, cfg.score))
        alphas[0] += cfg.aci_lr * (cfg.target_alpha - err)

        record = StepRecord(
            t=self.t,
            chosen_model=0,
            set_size=pred.size,
            err=err,
            subset=(0,),
            wall_nanos=time.perf_counter_ns() - start,
        )
        return pred, record


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
