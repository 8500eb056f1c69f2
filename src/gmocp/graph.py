"""Bipartite feedback graph between selective nodes and model nodes.

Each of J selective nodes draws N model indices i.i.d. from an
exploration-mixed weight PMF (duplicates collapse, so a row has between 1
and N edges). Node weights are the summed model weights of the connected
models; the node PMF and per-model inclusion probabilities follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class GraphParams:
    """J selective nodes, at most N links each, per-node exploration coefficients."""

    n_selective: int
    max_links: int
    eta_e: tuple

    def __post_init__(self):
        if self.n_selective < 1:
            raise ValueError(f"n_selective must be >= 1, got {self.n_selective}")
        if self.max_links < 1:
            raise ValueError(f"max_links must be >= 1, got {self.max_links}")
        if len(self.eta_e) != self.n_selective:
            raise ValueError(
                f"eta_e has length {len(self.eta_e)}, expected {self.n_selective}"
            )
        if any(not 0 < e <= 1 for e in self.eta_e):
            raise ValueError(f"all eta_e must lie in (0, 1], got {self.eta_e}")

    @staticmethod
    def uniform(n_selective: int, max_links: int, eta_e: float) -> "GraphParams":
        """Scalar exploration coefficient repeated across all nodes."""
        return GraphParams(n_selective, max_links, (float(eta_e),) * n_selective)


class FeedbackGraph:
    """A drawn graph: ``adjacency`` (J, M) bool, ``connect_pmf`` (J, M) whose row j is
    the PMF node j drew from, ``node_weights`` (J,), the summed weights of each node's
    models, ``node_pmf`` (J,) and ``n_trials`` (N).

    Built from the model ``weights`` instead of node weights and PMF, it computes
    those two from ``weights`` on first read (so the array must not change until
    then); a step with one selective node never reads them.
    """

    def __init__(self, adjacency, connect_pmf, node_weights=None, node_pmf=None,
                 n_trials=1, *, weights=None):
        self.adjacency, self.connect_pmf, self.n_trials = adjacency, connect_pmf, n_trials
        self._weights = weights
        if node_weights is not None:
            self.node_weights = node_weights
        if node_pmf is not None:
            self.node_pmf = node_pmf

    @cached_property
    def node_weights(self) -> np.ndarray:
        return self.adjacency @ self._weights

    @cached_property
    def node_pmf(self) -> np.ndarray:
        return self.node_weights / self.node_weights.sum()

    def inclusion_of(self, m: int) -> float:
        """Inclusion probability of a single model without the full (J, M) pass."""
        if len(self.adjacency) == 1:
            return 1.0 - (1.0 - float(self.connect_pmf[0, m])) ** self.n_trials
        hit = 1.0 - (1.0 - self.connect_pmf[:, m]) ** self.n_trials
        return float(self.node_pmf @ hit)


def connection_pmf(weights: np.ndarray, eta_e: float) -> np.ndarray:
    """Exploration-mixed PMF over model nodes: (1-eta_e) * w/sum(w) + eta_e/M."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total <= 0 or np.any(w <= 0):
        raise ValueError("model weights must all be positive")
    return (1.0 - eta_e) * w / total + eta_e / len(w)


def inclusion_probabilities(connect_pmf: np.ndarray, node_pmf: np.ndarray, n_trials: int) -> np.ndarray:
    """Probability each model lands in the selected node's subset.

    Mixes the per-node chance of being drawn at least once in N trials with
    the node-selection PMF; with heterogeneous exploration coefficients the
    per-node PMF is used inside the per-node term.
    """
    hit = 1.0 - (1.0 - connect_pmf) ** n_trials  # (J, M)
    return node_pmf @ hit


@lru_cache(maxsize=64)
def _explore_consts(params: GraphParams, n_models: int):
    eta = np.asarray(params.eta_e, dtype=float)
    return (1.0 - eta)[:, None], (eta / n_models)[:, None]


def generate_graph(weights: np.ndarray, params: GraphParams, rng: np.random.Generator) -> FeedbackGraph:
    """Draw a fresh bipartite graph. Consumes J x N uniforms, one row per node."""
    w = np.asarray(weights, dtype=float)
    m = len(w)
    j, n = params.n_selective, params.max_links
    total = w.sum()
    if total <= 0:
        raise ValueError("model weights must all be positive")
    scale, floor = _explore_consts(params, m)
    pmf = scale * (w / total) + floor
    cdf = np.add.accumulate(pmf, axis=1)
    draws = rng.random((j, n))  # row-major, same order as one row per node
    adjacency = np.zeros((j, m), dtype=bool)
    # searching all but the last CDF entry clamps a draw above a rounded-down total to m-1
    for r in range(j):
        adjacency[r, cdf[r, :-1].searchsorted(draws[r], side="right")] = True
    return FeedbackGraph(adjacency, pmf, n_trials=n, weights=w)


def select_node(graph: FeedbackGraph, rng: np.random.Generator) -> int:
    """A node drawn from the node PMF with one uniform; a one-node graph draws none."""
    if len(graph.adjacency) == 1:
        return 0
    draw = rng.random()
    cdf = np.cumsum(graph.node_pmf)
    return min(int(np.searchsorted(cdf, draw, side="right")), len(cdf) - 1)


def effective_subset(graph: FeedbackGraph, node: int) -> tuple:
    """Model indices connected to the given selective node, ascending."""
    return tuple(graph.adjacency[node].nonzero()[0].tolist())
