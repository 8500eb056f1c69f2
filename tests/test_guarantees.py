"""Coverage guarantees that hold for every stream, checked on adversarial ones.

ACI's long-run miscoverage bound (Gibbs and Candès, "Adaptive conformal inference
under distribution shift", NeurIPS 2021, Prop. 4.1) and SF-OGD's bound on each
level's summed miss excess, on the levels the policies themselves move.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmocp.graph import GraphParams
from gmocp.policies import ACIPolicy, PolicyConfig, make_policy
from gmocp.scoring import ScoreParams


@st.composite
def adversarial_streams(draw, n_models=1, max_steps=500):
    """(probs, true_label) steps over K labels. Rows are Dirichlet with concentration
    0.05-5, tied (integers 0-3 over their sum) or peaked (one label holds all but a
    sliver). The true label is the row's most likely label before a switch step and one
    of its least likely half after, so a level that has settled keeps missing."""
    horizon = draw(st.integers(1, max_steps))
    n_labels = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["dirichlet", "tied", "peaked"]))
    switch = draw(st.integers(0, horizon))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (horizon, n_models, n_labels)
    if kind == "dirichlet":
        probs = rng.dirichlet(np.full(n_labels, draw(st.floats(0.05, 5.0))), size=shape[:2])
    elif kind == "tied":
        counts = rng.integers(0, 4, size=shape).astype(float)
        counts[..., 0][counts.sum(axis=2) == 0] = 1.0
        probs = counts / counts.sum(axis=2, keepdims=True)
    else:
        sliver = draw(st.floats(1e-6, 0.3))
        probs = sliver * rng.dirichlet(np.ones(n_labels), size=shape[:2])
        top = rng.integers(n_labels, size=shape[:2])
        probs[np.arange(horizon)[:, None], np.arange(n_models), top] += 1.0 - sliver
    order = probs.mean(axis=1).argsort(axis=1, kind="stable")  # least likely first
    hard = order[np.arange(horizon), rng.integers(max(1, n_labels // 2), size=horizon)]
    labels = np.where(np.arange(horizon) < switch, order[:, -1], hard)
    return n_labels, list(zip(probs, labels.tolist()))


@given(stream=adversarial_streams(), alpha_init=st.floats(-1.0, 2.0),
       gamma=st.floats(0.001, 1.0), target=st.floats(0.01, 0.5),
       xi=st.sampled_from([0.0, 0.1]))
@settings(max_examples=150, deadline=None)
def test_aci_miscoverage_bound(stream, alpha_init, gamma, target, xi):
    """After every step T, |sum of (err - target)| <= (max(a1, 1 - a1) + gamma) / gamma,
    i.e. |mean err - target| <= (max(a1, 1 - a1) + gamma) / (gamma T). It holds only
    if a level at or below 0 covers and one at or above 1 (with a score stored) misses."""
    n_labels, steps = stream
    cfg = PolicyConfig(n_models=1, score=ScoreParams(xi=xi, k_reg=1, n_labels=n_labels),
                       target_alpha=target, aci_lr=gamma, alpha_init=alpha_init)
    policy = ACIPolicy(cfg, 0)
    bound = (max(alpha_init, 1.0 - alpha_init) + gamma) / gamma
    excess = 0.0
    for t, (probs, label) in enumerate(steps, start=1):
        _, rec = policy.step(probs, label)
        excess += rec.err - target
        assert abs(excess) <= bound + 1e-9, (t, policy.alphas[0])


def levels(policy) -> tuple:
    """Every SF-OGD level of a policy and its sum of squared gradients."""
    if policy.name == "coma":
        return [policy.shared_alpha], [policy.shared_grad_sq]
    return list(policy.alphas), list(policy.grad_sq)


@given(stream=adversarial_streams(n_models=3, max_steps=300),
       name=st.sampled_from(["mocp", "gmocp", "egmocp", "coma"]),
       links=st.integers(1, 3), nodes=st.integers(1, 3), eta_e=st.floats(0.05, 1.0),
       eta=st.floats(0.01, 1.0), target=st.floats(0.01, 0.5))
@settings(max_examples=150, deadline=None)
def test_sfogd_bound_on_policy_levels(stream, name, links, nodes, eta_e, eta, target):
    """While a level stays in [-eta, 1 + eta], |sum of (miss - target)| over its updates
    is at most (1 + 2 eta) sqrt(G) / eta, G its ``grad_sq`` (summation by parts). An
    update's gradient g = miss - target is read off the level's before/after state:
    |g| = sqrt(delta G), and the level falls exactly when it missed (g > 0)."""
    n_labels, steps = stream
    graph = GraphParams.uniform(nodes, links, eta_e) if name in ("gmocp", "egmocp") else None
    cfg = PolicyConfig(n_models=3, score=ScoreParams(xi=0.1, k_reg=1, n_labels=n_labels),
                       graph=graph, target_alpha=target, eta=eta,
                       beta=0.05 if name == "egmocp" else 0.0)
    policy = make_policy(name, cfg, 0)
    alphas, grad_sq = levels(policy)
    excess = [0.0] * len(alphas)
    in_range = [-eta <= a <= 1.0 + eta for a in alphas]
    for probs, label in steps:
        _, rec = policy.step(probs, label)
        after, after_sq = levels(policy)
        for i, (a0, g0, a1, g1) in enumerate(zip(alphas, grad_sq, after, after_sq)):
            if g1 == g0:  # not updated this step
                assert a1 == a0
                continue
            assert name in ("mocp", "coma") or i in rec.subset
            miss = int(a1 < a0)
            assert math.isclose(math.sqrt(g1 - g0), abs(miss - target), rel_tol=1e-6)
            if name == "coma":
                assert miss == rec.err
            excess[i] += miss - target
            in_range[i] = in_range[i] and -eta <= a1 <= 1.0 + eta
            if in_range[i]:
                assert abs(excess[i]) <= (1.0 + 2.0 * eta) * math.sqrt(g1) / eta + 1e-9
        alphas, grad_sq = after, after_sq
