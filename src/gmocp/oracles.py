"""Slow, independently-coded reference computations.

These deliberately avoid the closed forms used by the fast implementations:
the quantile oracle scans array positions, the alpha_bar oracle grid-searches
levels, the inclusion oracle enumerates every possible draw sequence, and the
unbiasedness oracle estimates expectations by straight Monte-Carlo. Tests and
the ``oracle`` CLI subcommand compare fast vs slow and report the worst
deviation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphParams, connection_pmf, generate_graph, inclusion_probabilities, select_node
from .rng import stream_rng
from .scoring import CalibrationStore, optimal_alpha_bar, quantile_threshold


@dataclass(frozen=True)
class OracleReport:
    name: str
    n_instances: int
    max_deviation: float
    tolerance: float
    passed: bool

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        return (f"oracle {self.name}: {self.n_instances} instances, "
                f"max deviation {self.max_deviation:.3g} "
                f"(tolerance {self.tolerance:g}) [{status}]")


# ---------------------------------------------------------------- quantile

def quantile_threshold_scan(scores, alpha: float) -> float:
    """Position scan: smallest stored score whose empirical level reaches L."""
    scores = sorted(scores)
    n = len(scores)
    t = n + 1
    level = math.ceil(t * (1.0 - alpha)) / n if n else math.inf
    if level <= 0:
        return -math.inf
    for i, s in enumerate(scores, start=1):
        if i / n >= level:
            return s
    return math.inf


def check_quantile(n_instances: int = 1000, seed: int = 7) -> OracleReport:
    rng = stream_rng(seed, "oracle/quantile")
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(0, 40))
        scores = np.round(rng.random(n), 6)
        store = CalibrationStore(sorted(scores.tolist()))
        alpha = float(rng.uniform(-0.2, 1.2))
        fast = quantile_threshold(store, alpha)
        slow = quantile_threshold_scan(store.scores, alpha)
        dev = 0.0 if fast == slow else abs(fast - slow)
        worst = max(worst, dev)
    return OracleReport("quantile", n_instances, worst, 0.0, worst <= 0.0)


# --------------------------------------------------------------- alpha_bar

def alpha_bar_grid(scores, true_score: float, resolution: float = 1e-4) -> float:
    """Largest grid level whose scan threshold still covers true_score."""
    grid = np.arange(0.0, 1.0 + resolution / 2, resolution)
    best = 0.0
    for alpha in grid:
        if quantile_threshold_scan(scores, float(alpha)) >= true_score:
            best = float(alpha)
    return best


def check_alpha_bar(n_instances: int = 1000, seed: int = 11,
                    resolution: float = 1e-4) -> OracleReport:
    rng = stream_rng(seed, "oracle/alpha-bar")
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(0, 15))
        scores = sorted(np.round(rng.random(n), 4).tolist())
        store = CalibrationStore(scores)
        true_score = float(np.round(rng.uniform(-0.1, 1.1), 4))
        fast = optimal_alpha_bar(store, true_score)
        slow = alpha_bar_grid(scores, true_score, resolution)
        worst = max(worst, abs(fast - slow))
    # grid points carry float-arange error, so allow a hair over the resolution
    return OracleReport("alpha_bar", n_instances, worst, resolution,
                        worst <= resolution + 1e-12)


# ---------------------------------------------------------- inclusion prob

def inclusion_prob_enumerate(weights, params: GraphParams, node_pmf) -> np.ndarray:
    """Exact inclusion probabilities by enumerating every draw sequence.

    For each selective node, walks all M^N ordered sequences of model draws,
    accumulating the probability mass of sequences containing each model,
    then mixes across nodes with the supplied node-selection PMF.
    """
    w = np.asarray(weights, dtype=float)
    m = len(w)
    q = np.zeros(m)
    for j, eta in enumerate(params.eta_e):
        pmf = connection_pmf(w, eta)
        present = np.zeros(m)
        for seq in itertools.product(range(m), repeat=params.max_links):
            prob = 1.0
            for idx in seq:
                prob *= pmf[idx]
            for idx in set(seq):
                present[idx] += prob
        q += node_pmf[j] * present
    return q


def _inclusion_frequencies(connect_pmf, node_pmf, n_trials: int, n_draws: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Fraction of ``n_draws`` draws whose subset holds each model, on a frozen state.

    Each draw picks a node from the fixed node PMF, then redraws that node's
    ``n_trials`` links from its connection PMF.
    """
    connect_pmf = np.asarray(connect_pmf, dtype=float)
    j, m = connect_pmf.shape
    node_cdf = np.cumsum(node_pmf)
    cdfs = np.cumsum(connect_pmf, axis=1)
    counts = np.zeros(m)
    for _ in range(n_draws):
        node = min(int(np.searchsorted(node_cdf, rng.random(), side="right")), j - 1)
        draws = np.searchsorted(cdfs[node], rng.random(n_trials), side="right")
        row = np.zeros(m, dtype=bool)
        row[np.minimum(draws, m - 1)] = True
        counts += row
    return counts / n_draws


def inclusion_prob_montecarlo(connect_pmf, node_pmf, n_trials: int, n_draws: int,
                              seed: int = 23) -> np.ndarray:
    """MC inclusion frequencies on a frozen state: fixed node PMF, fresh rows.

    Regenerating the whole graph each draw and following its own realized
    node selection would bias the frequencies upward (larger subsets make
    heavier nodes), so the node PMF is held fixed, matching the conditioning
    under which the inclusion probabilities are defined.
    """
    rng = stream_rng(seed, "oracle/inclusion-mc")
    return _inclusion_frequencies(connect_pmf, node_pmf, n_trials, n_draws, rng)


def check_inclusion_prob(n_instances: int = 1000, seed: int = 13) -> OracleReport:
    rng = stream_rng(seed, "oracle/inclusion")
    worst = 0.0
    for _ in range(n_instances):
        m = int(rng.integers(2, 6))
        j = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        params = GraphParams(j, n, tuple(np.round(rng.uniform(0.05, 1.0, j), 3)))
        weights = rng.uniform(0.1, 5.0, m)
        node_pmf = rng.uniform(0.1, 1.0, j)
        node_pmf /= node_pmf.sum()
        pmf = np.stack([connection_pmf(weights, e) for e in params.eta_e])
        fast = inclusion_probabilities(pmf, node_pmf, n)
        slow = inclusion_prob_enumerate(weights, params, node_pmf)
        rel = float(np.max(np.abs(fast - slow) / slow))
        worst = max(worst, rel)
    return OracleReport("inclusion_prob", n_instances, worst, 0.01, worst <= 0.01)


# ------------------------------------------------------------ unbiasedness

def importance_loss_montecarlo(losses, connect_pmf, node_pmf, n_trials: int,
                               n_draws: int, seed: int = 29) -> np.ndarray:
    """Monte-Carlo E[importance-weighted loss] per model on a frozen state.

    Freezes the node-selection PMF and inclusion probabilities, then redraws
    the graph rows and the selected node independently each iteration;
    models outside the realized subset contribute zero that round.
    """
    rng = stream_rng(seed, "oracle/unbiased")
    q = inclusion_probabilities(connect_pmf, node_pmf, n_trials)
    freq = _inclusion_frequencies(connect_pmf, node_pmf, n_trials, n_draws, rng)
    return freq * np.asarray(losses, dtype=float) / q


# ----------------------------------------------------------------- pinball

def best_constant_loss_grid(alpha_bars, target_alpha: float, lo: float, hi: float,
                            resolution: float = 1e-4) -> float:
    """Grid minimum of the cumulative pinball loss over constant levels."""
    ab = np.asarray(alpha_bars, dtype=float)
    grid = np.arange(lo, hi + resolution / 2, resolution)
    diffs = ab[None, :] - grid[:, None]
    losses = (target_alpha * diffs - np.minimum(0.0, diffs)).sum(axis=1)
    return float(losses.min())


def check_loss_unbiasedness(n_draws: int = 100_000, seed: int = 17) -> OracleReport:
    """E[importance loss] vs realized pinball loss on a random frozen state."""
    rng = stream_rng(seed, "oracle/unbiased-setup")
    m, j, n = 4, 3, 3
    params = GraphParams(j, n, tuple(np.round(rng.uniform(0.3, 0.9, j), 3)))
    weights = rng.uniform(0.5, 3.0, m)
    graph = generate_graph(weights, params, rng)
    losses = rng.uniform(0.02, 0.15, m)
    est = importance_loss_montecarlo(
        losses, graph.connect_pmf, graph.node_pmf, n, n_draws, seed=seed
    )
    rel = float(np.max(np.abs(est - losses) / losses))
    return OracleReport("loss_unbiasedness", n_draws, rel, 0.02, rel <= 0.02)


def check_regret_grid(n_instances: int = 50, seed: int = 19,
                      resolution: float = 1e-4) -> OracleReport:
    """Exact kink-scan comparator vs grid brute force on random level traces."""
    from .metrics import best_constant_loss

    rng = stream_rng(seed, "oracle/regret")
    target, eta = 0.1, 0.05
    worst = 0.0
    for _ in range(n_instances):
        t = int(rng.integers(20, 200))
        ab = rng.uniform(0.0, 1.0, t)
        exact, _ = best_constant_loss(ab, target, -eta, 1.0 + eta)
        grid = best_constant_loss_grid(ab, target, -eta, 1.0 + eta, resolution)
        if exact > grid + 1e-12:
            worst = max(worst, exact - grid)  # exact must never exceed the grid
        else:
            # grid overshoot is bounded by T * resolution * max slope
            worst = max(worst, (grid - exact) / max(t * resolution, 1e-12) - 1.0)
    worst = max(worst, 0.0)
    return OracleReport("regret_grid", n_instances, worst, 0.0, worst <= 0.0)


# --------------------------------------------------------------- dispatch

ORACLES = {
    "quantile": check_quantile,
    "alpha_bar": check_alpha_bar,
    "inclusion_prob": check_inclusion_prob,
    "loss_unbiasedness": check_loss_unbiasedness,
    "regret_grid": check_regret_grid,
}


def run_oracle(name: str, **kwargs) -> OracleReport:
    if name not in ORACLES:
        raise ValueError(f"unknown oracle {name!r}; expected one of {sorted(ORACLES)}")
    return ORACLES[name](**kwargs)
