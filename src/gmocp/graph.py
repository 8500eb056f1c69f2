"""Bipartite feedback graph between selective nodes and model nodes.

Each of J selective nodes draws N model indices i.i.d. from an
exploration-mixed weight PMF; its row is the ascending tuple of the distinct
indices it drew (duplicates collapse, so a row holds between 1 and N models).
A node's weight is the plain float sum of its row's model weights; the node
PMF and per-model inclusion probabilities follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rng import categorical


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
    """A drawn graph: ``rows``, one ascending tuple of linked model indices per
    selective node; ``connect_pmf`` (J, M), whose row j is the PMF node j drew from;
    ``node_pmf`` (J,); and ``n_trials`` (N).

    The node PMF is computed from the model ``weights`` on first read (so they must
    not change until then); a step with one selective node never reads it.
    """

    def __init__(self, rows, connect_pmf, n_trials=1, *, weights=None):
        self.rows, self.connect_pmf, self.n_trials = rows, connect_pmf, n_trials
        self._weights = weights

    @cached_property
    def node_pmf(self) -> np.ndarray:
        node_w = [sum(map(self._weights.item, row)) for row in self.rows]
        total = sum(node_w)
        return np.array([x / total for x in node_w])

    def inclusion_of(self, m: int) -> float:
        """Inclusion probability of a single model without the full (J, M) pass."""
        if len(self.rows) == 1:
            return 1.0 - (1.0 - float(self.connect_pmf[0, m])) ** self.n_trials
        return float(inclusion_probabilities(self.connect_pmf[:, m], self.node_pmf,
                                             self.n_trials))


def connection_pmf(weights: np.ndarray, eta_e: float) -> np.ndarray:
    """Exploration-mixed PMF over model nodes: (1-eta_e) * (w/sum(w)) + eta_e/M."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total <= 0 or np.any(w <= 0):
        raise ValueError("model weights must all be positive")
    return (1.0 - eta_e) * (w / total) + eta_e / len(w)


def inclusion_probabilities(connect_pmf: np.ndarray, node_pmf: np.ndarray, n_trials: int) -> np.ndarray:
    """Probability each model lands in the selected node's subset.

    Mixes the per-node chance of being drawn at least once in N trials with
    the node-selection PMF; with heterogeneous exploration coefficients the
    per-node PMF is used inside the per-node term.
    """
    hit = 1.0 - (1.0 - connect_pmf) ** n_trials  # (J, M)
    return node_pmf @ hit


@lru_cache(maxsize=64)
def _explore_consts(eta_e: tuple, n_models: int):
    eta = np.asarray(eta_e, dtype=float)
    return (1.0 - eta)[:, None], (eta / n_models)[:, None]


def generate_graph(weights: np.ndarray, params: GraphParams, rng: np.random.Generator) -> FeedbackGraph:
    """Draw a fresh bipartite graph. Consumes J x N uniforms, one row per node."""
    w = np.asarray(weights, dtype=float)
    j, n = params.n_selective, params.max_links
    total = np.add.reduce(w)
    if total <= 0:
        raise ValueError("model weights must all be positive")
    scale, floor = _explore_consts(params.eta_e, len(w))
    pmf = scale * (w / total) + floor
    cdf = np.add.accumulate(pmf, axis=1)
    draws = rng.random((j, n))  # row-major, same order as one row per node
    # searching all but the last CDF entry clamps a draw above a rounded-down total to M-1
    rows = tuple([tuple(sorted(set(cdf[r, :-1].searchsorted(draws[r], side="right").tolist())))
                  for r in range(j)])
    return FeedbackGraph(rows, pmf, n_trials=n, weights=w)


def select_node(graph: FeedbackGraph, rng: np.random.Generator) -> int:
    """A node drawn from the node PMF with one uniform; a one-node graph draws none."""
    return 0 if len(graph.rows) == 1 else categorical(rng, graph.node_pmf)


def effective_subset(graph: FeedbackGraph, node: int) -> tuple:
    """Model indices connected to the given selective node, ascending."""
    return graph.rows[node]
