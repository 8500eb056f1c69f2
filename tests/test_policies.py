"""Policy loops: trace equivalence, update rules, invariants, baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmocp import policies
from gmocp.graph import GraphParams
from gmocp.policies import (
    ACIPolicy,
    COMAPolicy,
    GMOCPPolicy,
    MOCPPolicy,
    PolicyConfig,
    make_policy,
    vote_set,
)
from gmocp.rng import stream_rng
from gmocp.scoring import (
    CalibrationStore,
    ScoreParams,
    all_label_scores,
    build_prediction_set,
    optimal_alpha_bar,
    quantile_threshold,
)
from gmocp.adapt import sfogd_update
from gmocp.runner import DEFAULT_PROFILES
from gmocp.streams import ModelProfile, StreamConfig, generate_stream

from reference_gmocp import reference_trace


def small_stream(n_models=3, horizon=50, n_labels=6, seed=0, schedule="gradual",
                 batch_size=10):
    qualities = ["high", "medium", "low"] * 3
    cfg = StreamConfig(
        model_profiles=tuple(ModelProfile(q) for q in qualities[:n_models]),
        n_labels=n_labels,
        horizon=horizon,
        batch_size=batch_size,
        schedule=schedule,
    )
    return list(generate_stream(cfg, master_seed=seed))


def policy_config(n_models, n_labels, graph=None, **kw):
    return PolicyConfig(
        n_models=n_models,
        score=ScoreParams(xi=0.1, k_reg=1, n_labels=n_labels),
        graph=graph,
        **kw,
    )


# ------------------------------------------------- trace vs reference loop

@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_gmocp_trace_matches_reference(beta):
    steps = small_stream()
    graph = GraphParams.uniform(2, 2, 0.3)
    cfg = policy_config(3, 6, graph=graph, beta=beta)
    policy = GMOCPPolicy(cfg, master_seed=7)

    ref = reference_trace(
        [( [list(map(float, p)) for p in s.probs], s.true_label) for s in steps],
        n_models=3, xi=0.1, k_reg=1, n_labels=6,
        eta_e=[0.3, 0.3], n_selective=2, max_links=2,
        beta=beta, master_seed=7,
    )

    for step, expect in zip(steps, ref):
        pred, rec = policy.step(step.probs, step.true_label)
        assert rec.node == expect["node"]
        assert rec.subset == expect["subset"]
        assert rec.chosen_model == expect["chosen"]
        assert rec.set_size == expect["set_size"]
        assert pred.labels == expect["labels"]
        assert rec.err == expect["err"]
        assert policy.log_w == pytest.approx(expect["log_w"], rel=1e-9)
        assert policy.alphas == pytest.approx(expect["alphas"], rel=1e-9)


def test_gmocp_reduces_to_single_model_loop():
    """J=1, N=1, M=1 equals a hand-rolled adaptive single-model loop."""
    steps = small_stream(n_models=1, horizon=200, schedule="stationary")
    cfg = policy_config(1, 6, graph=GraphParams.uniform(1, 1, 0.5))
    policy = GMOCPPolicy(cfg, master_seed=3)

    rng_u = stream_rng(3, "gmocp/tiebreak")
    rng_other = [stream_rng(3, "gmocp/graph"), stream_rng(3, "gmocp/node"),
                 stream_rng(3, "gmocp/model")]
    params = cfg.score
    store = CalibrationStore()
    alpha, grad_sq = 0.1, 0.0
    errs = []
    for s in steps:
        u = float(rng_u.random())
        for r in rng_other:
            r.random()  # graph/node/model draws are consumed but forced
        thr = quantile_threshold(store, alpha)
        pred = build_prediction_set(s.probs[0], thr, u, params)
        err = int(s.true_label not in pred.labels)
        score = all_label_scores(s.probs[0], u, params)[s.true_label]
        ab = optimal_alpha_bar(store, score)
        alpha, grad_sq = sfogd_update(alpha, grad_sq, ab, 0.1, 0.05)
        store.insert(score)

        _, rec = policy.step(s.probs, s.true_label)
        assert (rec.set_size, rec.err, rec.chosen_model) == (pred.size, err, 0)
        errs.append(err)
    assert policy.alphas[0] == pytest.approx(alpha, rel=1e-12)
    # easy stationary stream: the error rate settles near the target and the
    # adaptive level stays inside the guaranteed range
    assert np.mean(errs) <= 0.15
    assert -0.05 - 1e-9 <= policy.alphas[0] <= 1.05 + 1e-9


# --------------------------------------------------------- update algebra

def test_zero_losses_leave_weights_unchanged():
    """alpha_bar engineered to equal alpha for every model: log weights stay 0."""
    # alpha_init matches the float value of 1 - 9/10 so the residual is exactly 0
    cfg = policy_config(2, 20, graph=GraphParams.uniform(1, 2, 1.0),
                        alpha_init=1.0 - 9 / 10)
    policy = GMOCPPolicy(cfg, 11)
    for m in range(2):
        # 9 stored scores all below the incoming one: alpha_bar = 1 - 9/10 = alpha
        policy.calibrations[m] = CalibrationStore([-1.0] * 9)
    probs = np.full((2, 20), 0.05)
    _, rec = policy.step(probs, 0)
    assert rec.chosen_loss == 0.0
    # with beta = 0 a weight moves unless its model's loss is 0, so this covers every
    # updated model
    assert all(lw == 0.0 for lw in policy.log_w)


def test_egmocp_weight_ratio_len_penalty():
    """Equal losses, set sizes 1 vs 20: ratio exp(eps * beta * 19) ~ 1.608."""
    n_labels = 20
    cfg = PolicyConfig(
        n_models=2,
        score=ScoreParams(xi=0.1, k_reg=20, n_labels=n_labels),
        graph=GraphParams.uniform(1, 8, 1.0),
        beta=0.05,
        epsilon=0.5,
    )
    policy = GMOCPPolicy(cfg, master_seed=0)
    # both models: alpha_bar = 1 and identical pinball losses; model 0 yields a
    # singleton set, model 1 includes all 20 labels at its threshold
    policy.calibrations[0] = CalibrationStore([0.6] * 19)
    policy.calibrations[1] = CalibrationStore([0.06] * 19)
    probs = np.array([[1.0] + [0.0] * 19, [0.05] * 20])

    pred, rec = policy.step(probs, 0)
    assert rec.subset == (0, 1)  # seed chosen so both models are in play
    assert rec.set_size == (1 if rec.chosen_model == 0 else 20)
    w = policy.weights
    expected = math.exp(cfg.epsilon * cfg.beta * (20 - 1))
    assert w[0] / w[1] == pytest.approx(expected, rel=1e-9)
    assert w[0] / w[1] == pytest.approx(1.608, abs=1e-3)


def test_gmocp_equals_egmocp_at_beta_zero():
    steps = small_stream(horizon=40)
    graph = GraphParams.uniform(2, 2, 0.3)
    base = policy_config(3, 6, graph=graph)
    forced = policy_config(3, 6, graph=graph, beta=0.5)
    p1 = GMOCPPolicy(base, 5)
    p2 = make_policy("gmocp", forced, 5)  # beta forced back to 0
    assert p2.cfg.beta == 0.0
    for s in steps:
        _, r1 = p1.step(s.probs, s.true_label)
        _, r2 = p2.step(s.probs, s.true_label)
        assert (r1.subset, r1.chosen_model, r1.set_size, r1.err) == (
            r2.subset, r2.chosen_model, r2.set_size, r2.err
        )
    assert p1.log_w == p2.log_w


def test_egmocp_strong_weak_weight_separation():
    """Strong model's normalized weight exceeds 0.9 by T=2000 in >= 9/10 seeds."""
    cfg = PolicyConfig(
        n_models=2,
        score=ScoreParams(xi=0.1, k_reg=1, n_labels=20),
        graph=GraphParams.uniform(1, 3, 0.2),
        beta=0.05,
    )
    stream_cfg = StreamConfig(
        model_profiles=(ModelProfile("high"), ModelProfile("low")),
        horizon=2000,
    )
    wins = 0
    for seed in range(10):
        policy = make_policy("egmocp", cfg, seed)
        for s in generate_stream(stream_cfg, master_seed=seed):
            policy.step(s.probs, s.true_label)
        w = policy.weights
        if w[0] / w.sum() > 0.9:
            wins += 1
    assert wins >= 9


# ---------------------------------------------------------------- invariants

def test_gmocp_subset_invariants_and_determinism():
    steps = small_stream(horizon=100)
    graph = GraphParams.uniform(2, 2, 0.3)
    cfg = policy_config(3, 6, graph=graph, beta=0.05)

    def run():
        policy = make_policy("egmocp", cfg, 13)
        out = []
        for s in steps:
            _, rec = policy.step(s.probs, s.true_label)
            assert rec.chosen_model in rec.subset
            assert 1 <= len(rec.subset) <= 2
            out.append((rec.t, rec.node, rec.subset, rec.chosen_model,
                        rec.set_size, rec.err, rec.chosen_loss,
                        tuple(policy.log_w), tuple(policy.alphas)))
        return out

    assert run() == run()


def test_egmocp_default_weights_stay_positive_over_long_horizon():
    """egmocp N3J1 at the default parameters: no weight reaches 0.0 by t=15 000.

    Linear weights that are only rescaled once the largest is below 1e-300 let a
    weight reach 0.0 here at t=14 735.
    """
    cfg = PolicyConfig(n_models=8, score=ScoreParams(xi=0.1, k_reg=1, n_labels=20),
                       graph=GraphParams.uniform(1, 3, 0.2), beta=0.05)
    stream_cfg = StreamConfig(model_profiles=tuple(ModelProfile(q) for q in DEFAULT_PROFILES),
                              horizon=15_000)
    policy = make_policy("egmocp", cfg, 0)
    for s in generate_stream(stream_cfg, master_seed=0):
        policy.step(s.probs, s.true_label)
        assert min(policy.weights) > 0.0
    assert max(policy.weights) == 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), epsilon=st.floats(0.01, 10.0),
       beta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), n_links=st.integers(1, 4),
       n_selective=st.integers(1, 4), n_models=st.integers(2, 12),
       eta_e=st.floats(0.01, 1.0), horizon=st.integers(1, 300))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weights_stay_finite_and_every_pmf_normalized(seed, epsilon, beta, n_links, n_selective,
                                                      n_models, eta_e, horizon):
    """Whatever the step size and penalty: every log weight is finite, every linear
    weight positive and the largest exactly 1.0, and the connection PMFs, the node
    PMF and the selection PMF of the subset each sum to 1."""
    graphs = []
    generate_graph = policies.generate_graph
    cfg = policy_config(n_models, 10, graph=GraphParams.uniform(n_selective, n_links, eta_e),
                        epsilon=epsilon, beta=beta)
    policy = make_policy("egmocp" if beta > 0 else "gmocp", cfg, seed % 1000)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policies, "generate_graph",
                      lambda *args: graphs.append(generate_graph(*args)) or graphs[-1])
        for _ in range(horizon):
            weights = policy.weights
            _, rec = policy.step(rng.dirichlet(np.full(10, 0.5), size=n_models),
                                 int(rng.integers(10)))
            graph = graphs[-1]
            assert all(map(math.isfinite, policy.log_w)), rec.t
            assert min(policy.weights) > 0.0 and max(policy.weights) == 1.0, rec.t
            assert graph.connect_pmf.sum(axis=1) == pytest.approx(np.ones(n_selective),
                                                                  abs=1e-12)
            assert graph.node_pmf.sum() == pytest.approx(1.0, abs=1e-12)
            chosen = weights.take(rec.subset)
            assert (chosen / chosen.sum()).sum() == pytest.approx(1.0, abs=1e-12), rec.t


def test_coma_weights_follow_a_swap_of_the_best_model():
    """Two models whose peaked and flat rows swap after 20 steps. With coma_gamma=10
    model 1 falls 1270 nats behind by then, far past float64's range; 40 steps later
    model 0's penalty (4530 nats) exceeds model 1's (2010), and the vote is model 1's;
    model 0, 2520 nats behind, reads the smallest positive float. Linear weights kept
    that long read [1.507, 0.0] here: model 1 stays at 0.0."""
    cfg = PolicyConfig(n_models=2, score=ScoreParams(xi=0.0, k_reg=1, n_labels=10),
                       coma_gamma=10.0)
    policy = COMAPolicy(cfg, 0)
    peaked, flat = [0.91] + [0.01] * 9, [0.1] * 10
    for t in range(60):
        policy.step(np.array([peaked, flat] if t < 20 else [flat, peaked]), 0)
    assert policy.weights.tolist() == [math.ulp(0.0), 1.0]
    assert policy.log_w == [-4530.0, -2010.0]


def test_shared_u_flag():
    steps = small_stream(horizon=5)
    cfg = policy_config(3, 6, graph=GraphParams.uniform(1, 2, 0.5), shared_u=True)
    policy = GMOCPPolicy(cfg, 19)
    u = policy._draw_u()
    assert len(set(u.tolist())) == 1


# -------------------------------------------------------------------- MOCP

def test_mocp_single_model_matches_hand_loop():
    steps = small_stream(n_models=1, horizon=120)
    cfg = policy_config(1, 6)
    policy = MOCPPolicy(cfg, 23)

    rng_u = stream_rng(23, "mocp/tiebreak")
    rng_model = stream_rng(23, "mocp/model")
    store = CalibrationStore()
    alpha, grad_sq = 0.1, 0.0
    for s in steps:
        u = float(rng_u.random())
        rng_model.random()  # selection draw consumed even with one model
        thr = quantile_threshold(store, alpha)
        pred = build_prediction_set(s.probs[0], thr, u, cfg.score)
        score = all_label_scores(s.probs[0], u, cfg.score)[s.true_label]
        ab = optimal_alpha_bar(store, score)
        alpha, grad_sq = sfogd_update(alpha, grad_sq, ab, 0.1, 0.05)
        store.insert(score)

        _, rec = policy.step(s.probs, s.true_label)
        assert rec.chosen_model == 0
        assert rec.set_size == pred.size
        assert rec.err == int(s.true_label not in pred.labels)
    assert policy.alphas[0] == pytest.approx(alpha, rel=1e-12)


def test_mocp_symmetry_equal_losses():
    """Two clones of the same model keep exactly equal weights forever."""
    steps = small_stream(n_models=1, horizon=60)
    cfg = policy_config(2, 6, shared_u=True)
    policy = MOCPPolicy(cfg, 29)
    for s in steps:
        probs = (s.probs[0], s.probs[0])
        policy.step(probs, s.true_label)
        assert policy.log_w[0] == policy.log_w[1]
        assert policy.alphas[0] == policy.alphas[1]


# -------------------------------------------------------------------- COMA

def test_vote_two_of_three_passes_low_threshold():
    membership = np.array([[True], [True], [False]])
    got = vote_set(membership, np.array([1 / 3, 1 / 3, 1 / 3]), 0.2)
    assert got == frozenset({0})


def test_vote_unanimity_still_fails_at_u_one():
    # threshold 1 with a strict inequality excludes even a full vote
    membership = np.array([[True], [True]])
    got = vote_set(membership, np.array([0.5, 0.5]), 1.0)
    assert got == frozenset()


def test_vote_exact_half_excluded():
    membership = np.array([[True], [False]])
    got = vote_set(membership, np.array([0.5, 0.5]), 0.0)
    assert got == frozenset()


def test_coma_smoke_run():
    steps = small_stream(horizon=300)
    cfg = policy_config(3, 6, coma_gamma=0.01)
    policy = COMAPolicy(cfg, 31)
    errs = []
    for s in steps:
        pred, rec = policy.step(s.probs, s.true_label)
        assert 0 <= rec.set_size <= 6
        assert rec.chosen_model == -1
        errs.append(rec.err)
    assert -0.05 - 1e-9 <= policy.shared_alpha <= 1.05 + 1e-9
    assert np.mean(errs) < 0.5


# --------------------------------------------------------------------- ACI

def test_aci_update_directions():
    cfg = policy_config(1, 6, aci_lr=0.05)
    policy = ACIPolicy(cfg, 37)
    probs = (np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05]),)
    policy.step(probs, 0)  # empty store: +inf threshold, covered
    assert policy.alphas[0] == pytest.approx(0.1 + 0.05 * 0.1)

    policy2 = ACIPolicy(cfg, 37)
    policy2.calibrations[0] = CalibrationStore([-1.0] * 10)  # force a miss
    policy2.step(probs, 0)
    assert policy2.alphas[0] == pytest.approx(0.1 - 0.05 * 0.9)


def test_aci_long_run_error_rate():
    cfg = policy_config(1, 20, aci_lr=0.05)
    stream_cfg = StreamConfig(
        model_profiles=(ModelProfile("medium"),),
        horizon=5000,
        schedule="stationary",
    )
    policy = ACIPolicy(cfg, 41)
    errs = [policy.step(s.probs, s.true_label)[1].err
            for s in generate_stream(stream_cfg, master_seed=41)]
    assert np.mean(errs) == pytest.approx(0.1, abs=0.015)


def test_aci_requires_single_model():
    with pytest.raises(ValueError):
        ACIPolicy(policy_config(2, 6), 0)


# ---------------------------------------------------------------- factory

def test_make_policy_validation():
    cfg = policy_config(2, 6, graph=GraphParams.uniform(1, 2, 0.5))
    with pytest.raises(ValueError):
        make_policy("egmocp", cfg, 0)  # beta must be positive
    with pytest.raises(ValueError):
        make_policy("nope", cfg, 0)
    with pytest.raises(ValueError):
        GMOCPPolicy(policy_config(2, 6), 0)  # graph required
    assert isinstance(make_policy("mocp", cfg, 0), MOCPPolicy)
    assert isinstance(make_policy("coma", cfg, 0), COMAPolicy)


def test_policy_config_validation():
    with pytest.raises(ValueError):
        policy_config(0, 6)
    with pytest.raises(ValueError):
        policy_config(2, 6, target_alpha=1.5)
    with pytest.raises(ValueError):
        policy_config(2, 6, epsilon=0.0)
    with pytest.raises(ValueError):
        policy_config(2, 6, beta=1.5)
    with pytest.raises(ValueError):
        policy_config(2, 6, eta=0.0)


@pytest.mark.parametrize("key", ["coma_gamma", "aci_lr"])
def test_policy_config_rejects_a_negative_rate(key):
    """A negative ``aci_lr`` walks the level away from the target (every label in
    the set), and a negative ``coma_gamma`` rewards large sets; 0 stays valid."""
    with pytest.raises(ValueError, match=f"{key} must be >= 0, got -0.05"):
        policy_config(1, 6, **{key: -0.05})
    assert getattr(policy_config(1, 6, **{key: 0.0}), key) == 0.0


@pytest.mark.parametrize("shape, label, message", [
    ((8, 10), 0, r"probs has shape \(8, 10\), expected \(8, 20\)"),
    ((4, 20), 0, r"probs has shape \(4, 20\), expected \(8, 20\)"),
    ((12, 20), 0, r"probs has shape \(12, 20\), expected \(8, 20\)"),
    ((8, 20), 25, r"true_label 25 outside \[0, 20\)"),
    ((8, 20), -1, r"true_label -1 outside \[0, 20\)"),
])
def test_step_rejects_inputs_of_the_wrong_shape(shape, label, message):
    graph = GraphParams.uniform(1, 3, 0.5)
    for policy in (MOCPPolicy(policy_config(8, 20), 0), COMAPolicy(policy_config(8, 20), 0),
                   GMOCPPolicy(policy_config(8, 20, graph=graph), 0)):
        with pytest.raises(ValueError, match=message):
            policy.step(np.full(shape, 1.0 / shape[1]), label)
        assert policy.t == 0


def test_aci_step_checks_only_the_label_count():
    """ACI predicts from model 0, so a stream with any number of models will do."""
    policy = ACIPolicy(policy_config(1, 20), 0)
    policy.step(np.full((3, 20), 0.05), 4)
    for probs, label, message in [
        (np.full((3, 10), 0.1), 4, r"shape \(3, 10\), expected \(3, 20\)"),
        (np.full(20, 0.05), 4, r"shape \(20,\), expected \(1, 20\)"),
        (np.full((3, 20), 0.05), 20, r"true_label 20 outside \[0, 20\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            policy.step(probs, label)
    assert policy.t == 1


# ------------------------------------------------------- scores on tied rows

def integer_rows(n_models, n_labels, horizon, seed):
    """Rows of integers 0-3 over their sum: ties and zeros in nearly every row."""
    rng = np.random.default_rng(seed)
    for _ in range(horizon):
        counts = rng.integers(0, 4, size=(n_models, n_labels)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        yield counts / counts.sum(axis=1, keepdims=True), int(rng.integers(n_labels))


TIED_POLICIES = [("mocp", None), ("gmocp", GraphParams.uniform(1, 3, 0.1)),
                 ("egmocp", GraphParams.uniform(4, 5, 0.1))]


@pytest.mark.parametrize("name, graph", TIED_POLICIES, ids=["mocp", "gmocp-N3J1",
                                                            "egmocp-N5J4"])
def test_err_equals_the_miss_of_the_chosen_model_on_tied_rows(name, graph):
    """The set's score of the true label and the score the store ranks are one float,
    so the set misses exactly when the level is above the stored score's alpha_bar."""
    cfg = PolicyConfig(n_models=8, score=ScoreParams(xi=0.0, k_reg=1, n_labels=10),
                       graph=graph, beta=0.05 if name == "egmocp" else 0.0,
                       track_alpha_bar=True)
    policy = make_policy(name, cfg, 5)
    for probs, label in integer_rows(8, 10, 2000, seed=1):
        alphas = list(policy.alphas)
        _, rec = policy.step(probs, label)
        m = rec.chosen_model
        assert rec.err == int(rec.alpha_bars[m] < alphas[m]), rec.t


@pytest.mark.parametrize("name, graph", TIED_POLICIES + [("coma", None), ("aci", None)],
                         ids=["mocp", "gmocp-N3J1", "egmocp-N5J4", "coma", "aci"])
def test_every_stored_score_is_the_sets_score_on_tied_rows(name, graph, monkeypatch):
    """Each score a step stores equals, bit for bit, the score a set of that model
    gives the true label (``all_label_scores`` of its row)."""
    n_models = 1 if name == "aci" else 8
    cfg = PolicyConfig(n_models=n_models, score=ScoreParams(xi=0.0, k_reg=1, n_labels=10),
                       graph=graph, beta=0.05 if name == "egmocp" else 0.0)
    policy = make_policy(name, cfg, 7)
    stored, draws = [], []
    insert_each, insert = policies.insert_each, CalibrationStore.insert
    monkeypatch.setattr(policies, "insert_each",
                        lambda stores, scores: (stored.append(list(scores)),
                                                insert_each(stores, scores)))
    monkeypatch.setattr(CalibrationStore, "insert",
                        lambda store, score: (stored.append([score]), insert(store, score)))
    draw_u = policy._draw_u
    monkeypatch.setattr(policy, "_draw_u", lambda: draws.append(draw_u()) or draws[-1])
    for probs, label in integer_rows(n_models, 10, 300, seed=2):
        policy.step(probs, label)
        want = [all_label_scores(p, u, cfg.score)[label] for p, u in zip(probs, draws[-1])]
        assert [repr(float(s)) for s in stored[-1]] == [repr(float(s)) for s in want]
    assert len(stored) == len(draws) == 300
