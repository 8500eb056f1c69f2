"""The deferred score log (policies.ScoreLog) against one insort per score.

A graph policy at a large enough pool writes each step's scores to a log. A
step reads its subset's stores in place, through a view of the store and its
pending column (policies.PendingView), and the log merges into every store only
when it fills or when ``calibrations`` is read. Every read must see exactly the
store that inserting each score as it came would have built, so every output
of a deferred policy equals that of an eager one.
"""

import bisect
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gmocp.policies as policies
import gmocp.scoring as scoring
from gmocp.graph import GraphParams
from gmocp.policies import LOG_ROWS, PendingView, PolicyConfig, ScoreLog, StepRecord, make_policy
from gmocp.runner import DEFAULT_PROFILES
from gmocp.scoring import (CalibrationStore, ScoreParams, optimal_alpha_bar,
                           quantile_threshold)
from gmocp.streams import ModelProfile, StreamConfig, generate_stream

# few distinct values, so that ties (and 0.0 next to -0.0) are common
TIED = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, 1.5])
SCORES = st.one_of(TIED, st.floats(-1e3, 1e3, allow_nan=False))
# ranked besides every stored value: between the TIED values and past both ends
BETWEEN = [-1.0, 0.125, 0.375, 0.75, 1.25, 2.0]


def as_stored(values):
    """A store's list, compared exactly: repr tells 0.0 from -0.0."""
    return [repr(v) for v in values]


def reads(store, probes):
    """Everything a step reads of a store or a view: its count, its rank at each probe
    and its k-th score for every k, exact."""
    return (len(store), [store.rank(v) for v in probes],
            as_stored(store.kth(k) for k in range(len(store))))


def reference_reads(ref, probes):
    return (len(ref), [bisect.bisect_left(ref, v) for v in probes], as_stored(ref))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(initial=st.lists(TIED, max_size=24), pending=st.lists(TIED, max_size=LOG_ROWS))
@example(initial=[0.5, 0.0, -0.0, 1.5, 0.25, 0.5], pending=[])
def test_view_reads_as_the_merged_store(initial, pending):
    """A view of a store of up to 12 blocks (``BLOCK_SIZE`` 4) and up to ``LOG_ROWS``
    pending scores answers as a sorted list that took each pending score by insort,
    and as the store after ``merge``: ``quantile_threshold`` and
    ``optimal_alpha_bar`` give the same floats, -0.0 told from 0.0. A view of an
    empty column, which a step reads after every merge, answers as its store."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "BLOCK_SIZE", 4)
        store, ref = CalibrationStore(initial), sorted(initial)
        column = np.zeros((len(pending), 2))
        column[:, 1] = pending
        view = PendingView(store, column[:, 1])  # a strided column, as the log hands out
        for score in pending:
            bisect.insort(ref, score)
        probes = sorted(set(ref)) + BETWEEN
        assert reads(view, probes) == reference_reads(ref, probes)
        levels = [-0.5, 0.0, 0.05, 0.1, 0.5, 0.9, 1.0, 1.5]
        before = [repr(quantile_threshold(view, a)) for a in levels]
        bars = [optimal_alpha_bar(view, v) for v in probes]
        assert as_stored(store.scores) == as_stored(sorted(initial))  # a view merges nothing
        store.merge(column[:, 1])
        assert before == [repr(quantile_threshold(store, a)) for a in levels]
        assert bars == [optimal_alpha_bar(store, v) for v in probes]


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
        for m, view in log.views(read).items():
            probes = sorted(set(reference[m])) + BETWEEN
            assert reads(view, probes) == reference_reads(reference[m], probes)
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
    view = log.views([1])[1]
    assert [view.kth(k) for k in range(len(view))] == [5.0, 9.0]
    assert stores[1].scores == [9.0]
    log.sync_all()
    assert stores[1].scores == [5.0, 9.0]
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
    """The policy's state, and each store's threshold at its model's level: a read
    through the block index, which the scores alone do not check."""
    stores = policy.calibrations
    return (policy.log_w, policy.alphas, policy.grad_sq, [as_stored(s.scores) for s in stores],
            [quantile_threshold(s, a) for s, a in zip(stores, policy.alphas)])


# at 4096 every store stays one block; at 8 merges take the insort and numpy branches
# into many blocks, split blocks after a merge and views read across blocks
BLOCK_SIZES = [4096, 8]


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("track", [False, True])
@pytest.mark.parametrize("name, n, j", [("gmocp", 3, 1), ("egmocp", 5, 4)])
def test_deferred_policy_equals_eager_insertion(monkeypatch, name, n, j, track, block_size):
    monkeypatch.setattr(scoring, "BLOCK_SIZE", block_size)
    deferred = graph_policy(name, n, j, track)
    assert (deferred._log is None) == track  # tracked alpha_bar reads every store
    eager = eager_twin(monkeypatch, name, n, j, track)
    assert run(deferred, stream()) == run(eager, stream())
    assert final_state(deferred) == final_state(eager)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_outside_reads_see_every_score(monkeypatch, block_size):
    monkeypatch.setattr(scoring, "BLOCK_SIZE", block_size)
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
