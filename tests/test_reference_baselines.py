"""Every policy against its plain-loop reference: MOCP, COMA and ACI in
tests/reference_baselines.py, GMOCP and EGMOCP in tests/reference_gmocp.py.

Random simplex inputs, some with tied and zero probabilities, over drawn pool
sizes, label counts, graph shapes and settings; ``alpha_init`` may leave [0, 1],
so that thresholds of +inf and -inf occur. Every step record field but
``wall_nanos``, every label set and the final per-model state must be equal
exactly, but for GMOCP's weights (see its test).
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmocp.graph import GraphParams
from gmocp.policies import PolicyConfig, StepRecord, make_policy
from gmocp.scoring import ScoreParams

from reference_baselines import reference_aci, reference_coma, reference_mocp
from reference_gmocp import reference_trace

RECORD_FIELDS = [f.name for f in fields(StepRecord) if f.name != "wall_nanos"]


def simplex_steps(seed, n_models, n_labels, horizon):
    """(probs, true_label) steps.

    Every third step's rows are multiples of 1/16, so they hold ties and zeros; their
    sums are exact in any order, so the package's vectorized sums and the reference's
    loops give equal scores, and tied scores stay tied in both.
    """
    rng = np.random.default_rng(seed)
    steps = []
    for t in range(horizon):
        if t % 3 == 0:
            probs = rng.multinomial(16, rng.dirichlet(np.ones(n_labels)), size=n_models) / 16.0
        else:
            probs = rng.dirichlet(np.full(n_labels, rng.choice([0.3, 1.0, 4.0])), size=n_models)
        steps.append((probs, int(rng.integers(n_labels))))
    return steps


SETTINGS = {
    "seed": st.integers(0, 2**32 - 1),
    "n_models": st.integers(1, 12),
    "n_labels": st.integers(2, 30),
    "horizon": st.integers(60, 150),
    "xi": st.sampled_from([0.0, 0.1, 1.0]),
    "k_reg": st.integers(0, 4),
    "eta": st.floats(0.005, 0.5),
    "alpha_init": st.one_of(st.none(), st.floats(-0.5, -0.01), st.floats(0.0, 1.0),
                            st.floats(1.01, 1.5)),
    "shared_u": st.booleans(),
}


def assert_matches(policy, steps, trace, final):
    for (probs, y), expect in zip(steps, trace):
        pred, rec = policy.step(probs, y)
        for name in RECORD_FIELDS:
            assert getattr(rec, name) == expect[name], (rec.t, name)
        assert pred.labels == expect["labels"], rec.t
    for name, value in final.items():
        assert getattr(policy, name) == value, name


@settings(max_examples=50, deadline=None, derandomize=True)
@given(epsilon=st.floats(0.01, 5.0), track_alpha_bar=st.booleans(), **SETTINGS)
def test_mocp_matches_reference(seed, n_models, n_labels, horizon, xi, k_reg, eta,
                                alpha_init, shared_u, epsilon, track_alpha_bar):
    steps = simplex_steps(seed, n_models, n_labels, horizon)
    cfg = PolicyConfig(n_models, ScoreParams(xi=xi, k_reg=k_reg, n_labels=n_labels), eta=eta,
                       epsilon=epsilon, alpha_init=alpha_init, shared_u=shared_u,
                       track_alpha_bar=track_alpha_bar)
    trace, final = reference_mocp([([list(map(float, p)) for p in probs], y) for probs, y in steps],
                                  n_models, xi, k_reg, eta=eta, epsilon=epsilon,
                                  alpha_init=alpha_init, shared_u=shared_u,
                                  track_alpha_bar=track_alpha_bar, master_seed=seed % 1000)
    assert_matches(make_policy("mocp", cfg, seed % 1000), steps, trace, final)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(coma_gamma=st.floats(0.0, 0.5), **SETTINGS)
def test_coma_matches_reference(seed, n_models, n_labels, horizon, xi, k_reg, eta,
                                alpha_init, shared_u, coma_gamma):
    steps = simplex_steps(seed, n_models, n_labels, horizon)
    cfg = PolicyConfig(n_models, ScoreParams(xi=xi, k_reg=k_reg, n_labels=n_labels), eta=eta,
                       coma_gamma=coma_gamma, alpha_init=alpha_init, shared_u=shared_u)
    trace, final = reference_coma([([list(map(float, p)) for p in probs], y) for probs, y in steps],
                                  n_models, xi, k_reg, eta=eta, coma_gamma=coma_gamma,
                                  alpha_init=alpha_init, shared_u=shared_u,
                                  master_seed=seed % 1000)
    assert_matches(make_policy("coma", cfg, seed % 1000), steps, trace, final)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n_selective=st.integers(1, 4), max_links=st.integers(1, 5),
       eta_e=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       beta=st.one_of(st.just(0.0), st.floats(0.01, 1.0)), epsilon=st.floats(0.01, 5.0),
       track_alpha_bar=st.booleans(), **SETTINGS)
def test_gmocp_matches_reference(seed, n_models, n_labels, horizon, xi, k_reg, eta, alpha_init,
                                 shared_u, n_selective, max_links, eta_e, beta, epsilon,
                                 track_alpha_bar):
    steps = simplex_steps(seed, n_models, n_labels, horizon)
    eta_e = eta_e[:n_selective]
    cfg = PolicyConfig(n_models, ScoreParams(xi=xi, k_reg=k_reg, n_labels=n_labels),
                       GraphParams(n_selective, max_links, tuple(eta_e)), eta=eta,
                       epsilon=epsilon, beta=beta, alpha_init=alpha_init, shared_u=shared_u,
                       track_alpha_bar=track_alpha_bar)
    trace = reference_trace([([list(map(float, p)) for p in probs], y) for probs, y in steps],
                            n_models, xi, k_reg, n_labels, eta_e, n_selective, max_links,
                            eta=eta, epsilon=epsilon, beta=beta, master_seed=seed % 1000,
                            alpha_init=alpha_init, shared_u=shared_u,
                            track_alpha_bar=track_alpha_bar)
    for step in trace:
        step["chosen_model"] = step["chosen"]
    final = {"w": trace[-1]["weights"], "alphas": trace[-1]["alphas"],
             "grad_sq": trace[-1]["grad_sq"]}
    policy = make_policy("egmocp" if beta > 0 else "gmocp", cfg, seed % 1000)
    # the package sums the M weights with numpy (pairwise from M=8 on) and takes the
    # inclusion probability with numpy's power and dot (J > 1); each rounds unlike a
    # plain loop in the last bits, which the weight updates carry forward
    w = final.pop("w")
    assert_matches(policy, steps, trace, final)
    assert policy.w == pytest.approx(w, rel=1e-9, abs=0.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(aci_lr=st.floats(0.001, 0.5), **SETTINGS)
def test_aci_matches_reference(seed, n_models, n_labels, horizon, xi, k_reg, eta, alpha_init,
                               shared_u, aci_lr):
    """ACI reads the first model of a stream of any width; eta and shared_u do not apply."""
    steps = simplex_steps(seed, n_models, n_labels, horizon)
    cfg = PolicyConfig(1, ScoreParams(xi=xi, k_reg=k_reg, n_labels=n_labels), aci_lr=aci_lr,
                       alpha_init=alpha_init)
    trace, final = reference_aci([([list(map(float, p)) for p in probs], y) for probs, y in steps],
                                 xi, k_reg, aci_lr=aci_lr, alpha_init=alpha_init,
                                 master_seed=seed % 1000)
    assert_matches(make_policy("aci", cfg, seed % 1000), steps, trace, final)
