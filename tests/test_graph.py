"""Feedback-graph generation, PMFs and inclusion probabilities."""

import numpy as np
import pytest

from gmocp.graph import (
    FeedbackGraph,
    GraphParams,
    connection_pmf,
    effective_subset,
    generate_graph,
    select_node,
)
from gmocp.oracles import inclusion_prob_enumerate, inclusion_prob_montecarlo
from gmocp.rng import stream_rng

from reference_gmocp import node_pmf as reference_node_pmf


def inclusion(g: FeedbackGraph) -> np.ndarray:
    return np.array([g.inclusion_of(m) for m in range(g.connect_pmf.shape[1])])


def test_params_validation():
    with pytest.raises(ValueError):
        GraphParams(0, 1, ())
    with pytest.raises(ValueError):
        GraphParams(1, 0, (0.2,))
    with pytest.raises(ValueError):
        GraphParams(2, 1, (0.2,))  # wrong eta_e length
    with pytest.raises(ValueError):
        GraphParams(1, 1, (0.0,))  # eta_e must be positive
    GraphParams.uniform(3, 2, 0.2)


def test_connection_pmf_full_exploration_uniform():
    pmf = connection_pmf(np.array([10.0, 0.1, 3.0]), 1.0)
    assert pmf == pytest.approx([1 / 3] * 3)


def test_connection_pmf_pure_weights():
    # eta_e in (0, 1] by contract, so take the limit formula directly
    w = np.array([3.0, 1.0])
    assert ((1 - 0.0) * w / w.sum() + 0.0 / 2) == pytest.approx([0.75, 0.25])
    pmf = connection_pmf(w, 0.5)
    assert pmf == pytest.approx([0.625, 0.375])


def test_connection_pmf_is_the_pmf_the_graph_draws_from():
    """Bit for bit, so bounds and enumerations built on it use the policy's PMF."""
    rng = stream_rng(12, "t")
    for _ in range(200):
        m = int(rng.integers(2, 40))
        w = rng.uniform(0.01, 10.0, size=m)
        eta_e = float(rng.uniform(0.01, 1.0))
        g = generate_graph(w, GraphParams.uniform(1, 2, eta_e), rng)
        assert np.array_equal(connection_pmf(w, eta_e), g.connect_pmf[0])


def test_generate_graph_rejects_weights_that_do_not_sum_above_zero():
    rng = stream_rng(0, "test/graph")
    for w in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
        with pytest.raises(ValueError, match="model weights must all be positive"):
            generate_graph(w, GraphParams.uniform(1, 2, 0.2), rng)


def test_connection_pmf_rejects_bad_weights():
    with pytest.raises(ValueError):
        connection_pmf(np.array([0.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        connection_pmf(np.array([1.0, -1.0]), 0.5)


def test_inclusion_closed_form_n_equals_m():
    # single node, uniform pmf, N = M = 2
    params = GraphParams.uniform(1, 2, 1.0)
    g = generate_graph(np.array([5.0, 1.0]), params, stream_rng(0, "t"))
    assert inclusion(g) == pytest.approx([0.75, 0.75])


def test_inclusion_single_draw_uniform():
    params = GraphParams.uniform(1, 1, 1.0)
    g = generate_graph(np.ones(4), params, stream_rng(0, "t"))
    assert inclusion(g) == pytest.approx([0.25] * 4)


def test_inclusion_montecarlo_matches_analytic():
    params = GraphParams.uniform(2, 2, 0.3)
    g = generate_graph(np.array([2.0, 1.0, 0.5]), params, stream_rng(1, "t"))
    mc = inclusion_prob_montecarlo(g.connect_pmf, g.node_pmf, 2, 100_000)
    q = inclusion(g)
    assert np.max(np.abs(mc - q) / q) < 0.01


def test_inclusion_enumeration_matches_analytic():
    weights = np.array([1.0, 4.0, 2.0])
    # J > 1 reads the node PMF and _hit; J = 1 has its own Python-float branch
    for params in (GraphParams(2, 3, (0.2, 0.7)), GraphParams(1, 3, (0.4,))):
        g = generate_graph(weights, params, stream_rng(2, "t"))
        slow = inclusion_prob_enumerate(weights, params, g.node_pmf)
        assert inclusion(g) == pytest.approx(slow, rel=1e-10)


def test_uniform_eta_lower_bound():
    eta_e = 0.2
    params = GraphParams.uniform(3, 2, eta_e)
    rng = stream_rng(4, "t")
    for _ in range(50):
        w = rng.uniform(0.1, 10.0, size=5)
        g = generate_graph(w, params, rng)
        assert np.all(inclusion(g) >= eta_e / 5 - 1e-12)


def test_graph_invariants():
    params = GraphParams.uniform(4, 3, 0.4)
    rng = stream_rng(5, "t")
    for _ in range(50):
        w = rng.uniform(0.1, 5.0, size=6)
        g = generate_graph(w, params, rng)
        assert len(g.rows) == 4
        for row in g.rows:
            assert 1 <= len(row) <= 3
            assert list(row) == sorted(set(row)) and 0 <= row[0] and row[-1] < 6
        assert g.connect_pmf.sum(axis=1) == pytest.approx(np.ones(4))
        assert g.node_pmf.sum() == pytest.approx(1.0)


def test_generate_graph_deterministic():
    params = GraphParams.uniform(3, 2, 0.3)
    w = np.array([1.0, 2.0, 3.0])
    g1 = generate_graph(w, params, stream_rng(6, "t"))
    g2 = generate_graph(w, params, stream_rng(6, "t"))
    assert g1.rows == g2.rows


@pytest.mark.parametrize("n_selective", [2, 3, 4])
def test_node_pmf_is_the_plain_row_sum(n_selective):
    """The node weights are the reference's float sums in row order, bit for bit."""
    params = GraphParams.uniform(n_selective, 3, 0.3)
    rng = stream_rng(13, "t")
    for _ in range(200):
        w = rng.uniform(0.01, 10.0, size=8)
        g = generate_graph(w, params, rng)
        assert g.node_pmf.tolist() == reference_node_pmf(w.tolist(), g.rows)


def test_select_node_single():
    params = GraphParams.uniform(1, 2, 0.5)
    g = generate_graph(np.ones(3), params, stream_rng(7, "t"))
    assert select_node(g, stream_rng(7, "n")) == 0


def test_select_node_degenerate_pmf():
    g = FeedbackGraph(
        rows=((0,), (1,)),
        connect_pmf=np.full((2, 2), 0.5),
        n_trials=1,
        weights=np.array([0.0, 1.0]),
    )
    rng = stream_rng(8, "n")
    assert all(select_node(g, rng) == 1 for _ in range(20))


def test_select_node_frequencies():
    g = FeedbackGraph(
        rows=((0,), (1,)),
        connect_pmf=np.full((2, 2), 0.5),
        n_trials=1,
        weights=np.array([0.3, 0.7]),
    )
    rng = stream_rng(9, "n")
    hits = sum(select_node(g, rng) for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.7, abs=0.01)


def test_effective_subset_from_row():
    g = FeedbackGraph(
        rows=((0, 2),),
        connect_pmf=np.full((1, 4), 0.25),
        n_trials=2,
        weights=np.ones(4),
    )
    assert effective_subset(g, 0) == (0, 2)


def test_expected_subset_size_full_exploration():
    # J=1, N=M, eta_e=1: E|S| = M(1 - (1 - 1/M)^M)
    m = 4
    params = GraphParams.uniform(1, m, 1.0)
    rng = stream_rng(10, "t")
    sizes = [
        len(effective_subset(generate_graph(np.ones(m), params, rng), 0))
        for _ in range(100_000)
    ]
    expected = m * (1 - (1 - 1 / m) ** m)
    assert np.mean(sizes) == pytest.approx(expected, rel=0.01)
    assert expected < m  # the gap to full information


def test_exchangeable_inclusion_equal_weights():
    params = GraphParams.uniform(2, 3, 1.0)
    g = generate_graph(np.ones(5), params, stream_rng(11, "t"))
    q = inclusion(g)
    assert np.ptp(q) == pytest.approx(0.0, abs=1e-15)
