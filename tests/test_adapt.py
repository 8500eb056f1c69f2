"""Pinball loss, its subgradient, and the scale-free OGD level update."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmocp.adapt import pinball_loss, sfogd_update, sfogd_update_err
from gmocp.policies import MOCPPolicy, PolicyConfig
from gmocp.scoring import ScoreParams


def test_pinball_zero_residual():
    assert pinball_loss(0.4, 0.4, 0.1) == 0.0


def test_pinball_covered_side():
    assert pinball_loss(0.5, 0.2, 0.1) == pytest.approx(0.03)


def test_pinball_missed_side():
    assert pinball_loss(0.2, 0.5, 0.1) == pytest.approx(0.27)


@given(
    ab=st.floats(-0.1, 1.1),
    a=st.floats(-0.1, 1.1),
    target=st.floats(0.01, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_pinball_nonnegative(ab, a, target):
    assert pinball_loss(ab, a, target) >= 0.0


def step_gradient(alpha_bar, alpha, target_alpha, eta=0.05):
    """The gradient of one ``sfogd_update`` from a fresh state, read back from its result:
    the step is ``eta * g / sqrt(g * g)``."""
    new_alpha, grad_sq = sfogd_update(alpha, 0.0, alpha_bar, target_alpha, eta)
    return (alpha - new_alpha) * math.sqrt(grad_sq) / eta


def test_gradient_values():
    assert step_gradient(0.1, 0.4, 0.1) == pytest.approx(0.9)  # miss
    assert step_gradient(0.6, 0.4, 0.1) == pytest.approx(-0.1)  # cover
    assert step_gradient(0.4, 0.4, 0.1) == pytest.approx(-0.1)  # boundary covers


def test_gradient_is_finite_difference_slope():
    for ab, a in [(0.2, 0.6), (0.7, 0.3), (0.05, 0.9)]:
        g = step_gradient(ab, a, 0.1)
        h = 1e-6
        fd = (pinball_loss(ab, a + h, 0.1) - pinball_loss(ab, a - h, 0.1)) / (2 * h)
        assert g == pytest.approx(fd, abs=1e-4)


def test_sfogd_first_step_covered():
    alpha, grad_sq = sfogd_update(0.1, 0.0, 0.5, 0.1, 0.05)
    assert alpha == pytest.approx(0.15)
    assert grad_sq == pytest.approx(0.01)


def test_sfogd_first_step_missed():
    alpha, grad_sq = sfogd_update(0.1, 0.0, 0.0, 0.1, 0.05)
    assert alpha == pytest.approx(0.05)
    assert grad_sq == pytest.approx(0.81)


def test_sfogd_err_variant_matches():
    a1, g1 = sfogd_update(0.3, 0.0, 0.1, 0.1, 0.05)  # 0.1 < 0.3: miss
    a2, g2 = sfogd_update_err(0.3, 0.0, 1, 0.1, 0.05)
    assert a1 == pytest.approx(a2)
    assert g1 == pytest.approx(g2)


def test_sfogd_alternating_stays_in_range():
    eta = 0.05
    alpha, grad_sq = 0.1, 0.0
    for i in range(100):
        alpha, grad_sq = sfogd_update(alpha, grad_sq, 0.0 if i % 2 else 1.0, 0.1, eta)
        assert -eta <= alpha <= 1.0 + eta


@given(
    alpha_bars=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
    eta=st.floats(0.01, 0.2),
    target=st.floats(0.05, 0.5),
)
@settings(max_examples=100, deadline=None)
def test_sfogd_range_invariant_random_sequences(alpha_bars, eta, target):
    """Range invariant under any realizable optimal-level sequence.

    The coverage indicator is derived from alpha_bar in [0, 1]; feeding
    arbitrary err bits instead can leave the range (a miss is impossible
    once alpha is negative), so the driver mirrors the real dynamics.
    """
    alpha, grad_sq = target, 0.0
    prev_gss = 0.0
    for ab in alpha_bars:
        alpha, grad_sq = sfogd_update(alpha, grad_sq, ab, target, eta)
        assert -eta - 1e-12 <= alpha <= 1.0 + eta + 1e-12
        assert grad_sq >= prev_gss
        prev_gss = grad_sq


def test_alpha_state_validation():
    """A level's SF-OGD state lives on the policy: its step size ``eta`` is checked
    by ``PolicyConfig`` and every level starts at ``alpha0`` with ``grad_sq == 0``."""
    score = ScoreParams(xi=0.1, k_reg=1, n_labels=6)
    with pytest.raises(ValueError):
        PolicyConfig(n_models=2, score=score, eta=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(n_models=2, score=score, eta=-0.05)
    policy = MOCPPolicy(PolicyConfig(n_models=3, score=score, alpha_init=0.2), 0)
    assert policy.alphas == [0.2, 0.2, 0.2]
    assert policy.grad_sq == [0.0, 0.0, 0.0]
