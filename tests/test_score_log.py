"""The deferred score log (policies.ScoreLog) against one insort per score.

A graph policy at a large enough pool writes each step's scores to a log and
merges a model's pending scores only when its store is read. Every read must
see exactly the store that inserting each score as it came would have built,
so every output of a deferred policy equals that of an eager one.
"""

import bisect
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmocp.policies as policies
from gmocp.graph import GraphParams
from gmocp.policies import LOG_ROWS, PolicyConfig, ScoreLog, StepRecord, make_policy
from gmocp.runner import DEFAULT_PROFILES
from gmocp.scoring import CalibrationStore, ScoreParams, quantile_threshold
from gmocp.streams import ModelProfile, StreamConfig, generate_stream

# few distinct values, so that ties (and 0.0 next to -0.0) are common
TIED = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5])
SCORES = st.one_of(TIED, st.floats(-1e3, 1e3, allow_nan=False))


def as_stored(values):
    """A store's list, compared exactly: repr tells 0.0 from -0.0."""
    return [repr(v) for v in values]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n_models=st.integers(1, 6), rows=st.integers(1, 40),
       period=st.integers(1, 24))
def test_every_read_sees_the_store_of_one_insort_per_score(data, n_models, rows, period):
    """Stores are read every ``period`` steps, so a read finds 0 to ``rows - 1`` scores pending."""
    n_steps = data.draw(st.integers(2 * rows + 1, 3 * rows + 20), label="steps")
    stores = [CalibrationStore() for _ in range(n_models)]
    log = ScoreLog(stores, rows=rows)
    reference = [[] for _ in range(n_models)]
    models = st.integers(0, n_models - 1)
    for t in range(n_steps):
        read = data.draw(st.lists(models, max_size=3), label="read") if t % period == 0 else []
        log.sync(read)
        for m in read:
            assert as_stored(stores[m].scores) == as_stored(reference[m])
        scores = data.draw(st.lists(SCORES, min_size=n_models, max_size=n_models), label="scores")
        log.append(np.array(scores))
        for ref, score in zip(reference, scores):
            bisect.insort(ref, score)
    log.sync_all()
    assert [as_stored(s.scores) for s in stores] == [as_stored(r) for r in reference]
    assert all(type(v) is float for s in stores for v in s.scores)


def test_a_store_put_in_the_list_receives_only_later_scores():
    stores = [CalibrationStore() for _ in range(2)]
    log = ScoreLog(stores, rows=4)
    log.append(np.array([3.0, 1.0]))
    log.sync_all()
    stores[1] = CalibrationStore([9.0])
    log.append(np.array([2.0, 5.0]))
    log.sync([1])
    assert stores[1].scores == [5.0, 9.0]
    log.sync([0])
    assert stores[0].scores == [2.0, 3.0]


# ------------------------------------------------------------ policy level

N_MODELS = policies.DEFER_MODELS_PER_LINK * 5  # deferred for N up to 5
HORIZON = LOG_ROWS + 100  # the log fills and is emptied once
SCORE = ScoreParams(xi=0.1, k_reg=1, n_labels=20)


@lru_cache(maxsize=1)
def stream():
    profiles = tuple(ModelProfile(DEFAULT_PROFILES[m % len(DEFAULT_PROFILES)])
                     for m in range(N_MODELS))
    cfg = StreamConfig(model_profiles=profiles, horizon=HORIZON, schedule="gradual")
    return list(generate_stream(cfg, master_seed=3))


def graph_policy(name, n, j, track=False):
    beta = 0.05 if name == "egmocp" else 0.0
    cfg = PolicyConfig(N_MODELS, SCORE, GraphParams.uniform(j, n, 0.2), beta=beta,
                       track_alpha_bar=track)
    return make_policy(name, cfg, 3)


def eager_twin(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(policies, "DEFER_MODELS_PER_LINK", 10**9)
        policy = graph_policy(*args, **kwargs)
    assert policy._log is None
    return policy


def run(policy, steps):
    names = [f.name for f in fields(StepRecord) if f.name != "wall_nanos"]
    out = []
    for s in steps:
        pred, rec = policy.step(s.probs, s.true_label)
        out.append(([getattr(rec, name) for name in names], sorted(pred.labels)))
    return out


def final_state(policy):
    return (policy.log_w, policy.alphas, policy.grad_sq,
            [as_stored(s.scores) for s in policy.calibrations])


@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("name, n, j", [("gmocp", 3, 1), ("egmocp", 5, 4)])
def test_deferred_policy_equals_eager_insertion(monkeypatch, name, n, j, track):
    deferred = graph_policy(name, n, j, track)
    assert (deferred._log is None) == track  # tracked alpha_bar reads every store
    eager = eager_twin(monkeypatch, name, n, j, track)
    assert run(deferred, stream()) == run(eager, stream())
    assert final_state(deferred) == final_state(eager)


def test_outside_reads_see_every_score(monkeypatch):
    deferred = graph_policy("gmocp", 3, 1)
    eager = eager_twin(monkeypatch, "gmocp", 3, 1)
    assert deferred._log is not None
    run(deferred, stream()[:300])
    run(eager, stream()[:300])
    assert [quantile_threshold(deferred.calibrations[m], deferred.alphas[m])
            for m in range(N_MODELS)] == [quantile_threshold(eager.calibrations[m], eager.alphas[m])
                                          for m in range(N_MODELS)]

    # a store put in from outside is read at the next step and gets later scores only
    run(deferred, stream()[300:310])
    run(eager, stream()[300:310])
    for policy in (deferred, eager):
        for m in range(N_MODELS):
            policy.calibrations[m] = CalibrationStore([-1.0] * 50)
    assert run(deferred, stream()[310:320]) == run(eager, stream()[310:320])
    assert final_state(deferred) == final_state(eager)
    assert all(len(s.scores) == 60 for s in deferred.calibrations)
