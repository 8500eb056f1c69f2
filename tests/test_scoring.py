"""Scoring, calibration stores, thresholds, prediction sets, optimal levels."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gmocp import scoring
from gmocp.oracles import alpha_bar_grid, quantile_threshold_scan
from gmocp.scoring import (
    CalibrationStore,
    ScoreParams,
    all_label_scores,
    all_model_scores,
    build_prediction_set,
    nonconformity_score,
    optimal_alpha_bar,
    prediction_set_size,
    quantile_threshold,
)

P3 = ScoreParams(xi=0.1, k_reg=1, n_labels=3)


def make_store(scores):
    return CalibrationStore(sorted(float(s) for s in scores))


# ------------------------------------------------------------ score values

def test_score_top_label():
    assert nonconformity_score([0.7, 0.2, 0.1], 0, 0.5, P3) == pytest.approx(0.35)


def test_score_second_label():
    assert nonconformity_score([0.7, 0.2, 0.1], 1, 0.0, P3) == pytest.approx(0.8)


def test_score_all_ties_zero():
    params = ScoreParams(xi=0.02, k_reg=5, n_labels=4)
    assert nonconformity_score([0.25] * 4, 2, 0.0, params) == 0.0


def test_score_input_validation():
    with pytest.raises(ValueError):
        nonconformity_score([0.7, 0.2, 0.1], 3, 0.5, P3)
    with pytest.raises(ValueError):
        nonconformity_score([0.7, 0.2, 0.1], 0, 1.5, P3)
    with pytest.raises(ValueError):
        nonconformity_score([0.7, 0.2, 0.1], -1, 0.5, P3)


def test_score_params_validation():
    with pytest.raises(ValueError, match="xi must be >= 0, got -0.1"):
        ScoreParams(xi=-0.1, k_reg=1, n_labels=3)
    with pytest.raises(ValueError, match="xi must be at most 1e[+]100 in magnitude, got 1e[+]101"):
        ScoreParams(xi=1e101, k_reg=1, n_labels=3)
    with pytest.raises(ValueError, match="k_reg must be >= 0, got -1"):
        ScoreParams(xi=0.1, k_reg=-1, n_labels=3)
    with pytest.raises(ValueError, match="n_labels must be >= 1, got 0"):
        ScoreParams(xi=0.1, k_reg=1, n_labels=0)


# probability rows with ties and zeros: integers 0-3 over their sum
TIED_ROWS = st.lists(st.integers(0, 3), min_size=2, max_size=10).filter(any).map(
    lambda c: np.array(c, dtype=float) / sum(c))
ROWS = st.one_of(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10).map(
        lambda p: np.array(p) / sum(p)),
    TIED_ROWS,
)


def tied_rows(rng, n_rows, n_labels):
    """Rows of integers 0-3 over their sum: ties and zeros in nearly every row."""
    counts = rng.integers(0, 4, size=(n_rows, n_labels)).astype(float)
    counts[counts.sum(axis=1) == 0, 0] = 1.0
    return counts / counts.sum(axis=1, keepdims=True)


@given(p=ROWS, u=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_vectorized_scores_match_scalar(p, u):
    params = ScoreParams(xi=0.1, k_reg=1, n_labels=len(p))
    fast = all_label_scores(p, u, params)
    for y in range(len(p)):
        assert fast[y] == nonconformity_score(p, y, u, params)


def unsorted_search_scores(p, u, params):
    """Every label's score of one row by two searches of the sorted row for the row's
    own, unsorted entries: the one-row arithmetic the package used before every shape
    went through the sorted kernel, kept as the reference it must equal bit for bit."""
    asc = np.sort(p)
    acc, k = np.add.accumulate(asc), len(p) - asc.searchsorted(p, side="left")
    below = acc[asc.searchsorted(p, side="right") - 1]
    return params.rank_penalty[k] + u * p + (acc[-1] - below)


@pytest.mark.parametrize("n_labels", [1, 2, 20, 1000])
def test_label_scores_of_many_rows_equal_one_call_per_row(n_labels):
    """Scores of one row and of many rows, and a set's labels and size, equal the
    unsorted-search reference bit for bit, with thresholds at each label's own score
    so that ties decide membership; on tied, zero, one-hot, Dirichlet(0.05) rows and
    rows with entries near 1e-300 and 1e-17."""
    rng = np.random.default_rng(n_labels)
    tiny = rng.dirichlet(np.ones(n_labels))
    tiny[1::3], tiny[2::3] = 1e-300, 1e-17
    tiny[4::6] = 3e-300
    rows = [rng.dirichlet(np.ones(n_labels)),
            rng.multinomial(8, np.full(n_labels, 1 / n_labels)) / 8.0,  # ties and zeros
            tied_rows(rng, 1, n_labels)[0],
            np.full(n_labels, 1 / n_labels),
            np.eye(n_labels)[-1],
            rng.dirichlet(np.full(n_labels, 0.05)),
            tiny]
    probs = np.array(rows)
    for u in (np.zeros(len(probs)), rng.random(len(probs)), np.ones(len(probs))):
        for params in (ScoreParams(xi=0.1, k_reg=1, n_labels=n_labels),
                       ScoreParams(xi=0.0, k_reg=0, n_labels=n_labels)):
            reference = np.array([unsorted_search_scores(p, v, params) for p, v in zip(probs, u)])
            for which in (slice(None), slice(None, None, -1), slice(2, 3)):
                batch = all_label_scores(probs[which], u[which], params)
                assert batch.shape == reference[which].shape
                assert batch.tobytes() == reference[which].tobytes()
            for p, v, ref in zip(probs, u, reference):
                asc = np.sort(p)
                for one in (all_label_scores(p, v, params), all_label_scores(p, v, params, asc)):
                    assert one.shape == ref.shape and one.tobytes() == ref.tobytes()
                labels = range(n_labels) if n_labels <= 20 else rng.choice(n_labels, 48, False)
                for t in [-math.inf, math.inf, *ref[list(labels)].tolist()]:
                    expected = frozenset(np.flatnonzero(ref <= t).tolist())
                    for pred in (build_prediction_set(p, t, v, params),
                                 build_prediction_set(p, t, v, params, asc)):
                        assert pred.labels == expected
                        assert pred.size == len(expected)


def test_all_model_scores_matches_scalar():
    rng = np.random.default_rng(3)
    u_vec = rng.random(4)
    params = ScoreParams(xi=0.1, k_reg=1, n_labels=6)
    for probs in (rng.dirichlet(np.ones(6), size=4), tied_rows(rng, 4, 6)):
        for y in range(6):
            fast = all_model_scores(probs, y, u_vec, params)
            for m in range(4):
                assert fast[m] == nonconformity_score(probs[m], y, u_vec[m], params)


@pytest.mark.parametrize("n_labels", [2, 10, 1000])
def test_every_score_path_equals_the_one_row_kernel(n_labels):
    """A stored score (``all_model_scores``), a set's scores (``all_label_scores`` of
    one row or many, with or without the caller's sort) and a set's size
    (``prediction_set_size`` of one row or many, in label or sorted order) agree bit
    for bit on tied rows."""
    rng = np.random.default_rng(n_labels)
    probs = np.vstack([tied_rows(rng, 6, n_labels), rng.dirichlet(np.ones(n_labels), size=2)])
    asc = np.sort(probs)
    u_vec = rng.random(len(probs))
    u_vec[0] = 0.0
    params = ScoreParams(xi=0.0, k_reg=0, n_labels=n_labels)
    kernel = np.array([all_label_scores(p, u, params) for p, u in zip(probs, u_vec)])
    assert all_label_scores(probs, u_vec, params, asc).tobytes() == kernel.tobytes()
    for m in range(len(probs)):
        assert all_label_scores(probs[m], u_vec[m], params, asc[m]).tobytes() == kernel[m].tobytes()
    for y in rng.choice(n_labels, size=min(n_labels, 5), replace=False):
        column = np.ascontiguousarray(kernel[:, y])
        assert all_model_scores(probs, y, u_vec, params).tobytes() == column.tobytes()
        assert all_model_scores(probs, y, u_vec, params, asc).tobytes() == column.tobytes()
        # thresholds at stored scores: the comparisons that ties make exact
        sizes = [int(np.count_nonzero(row <= t)) for row, t in zip(kernel, column)]
        assert prediction_set_size(probs, column, u_vec, params) == sizes
        assert prediction_set_size(asc, column, u_vec, params) == sizes
        assert [prediction_set_size(p, t, u, params)
                for p, t, u in zip(probs, column, u_vec)] == sizes


def test_score_nondecreasing_down_the_ranking():
    rng = np.random.default_rng(11)
    params = ScoreParams(xi=0.1, k_reg=1, n_labels=8)
    for i in range(100):
        p = tied_rows(rng, 1, 8)[0] if i % 2 else rng.dirichlet(np.ones(8))
        order = np.argsort(-p, kind="stable")
        scores = [nonconformity_score(p, int(y), 0.5, params) for y in order]
        assert all(a <= b for a, b in zip(scores, scores[1:]))


# ------------------------------------------------------------- thresholds

def test_threshold_mid_level():
    assert quantile_threshold(make_store([0.1, 0.2, 0.3, 0.4]), 0.5) == pytest.approx(0.3)


def test_threshold_above_one_clamps():
    assert quantile_threshold(make_store([0.1, 0.2, 0.3, 0.4]), 0.1) == math.inf


def test_threshold_empty_store():
    assert quantile_threshold(CalibrationStore(), 0.5) == math.inf


def test_threshold_negative_level_clamps():
    # alpha > 1 can push the level to or below zero
    assert quantile_threshold(make_store([0.1, 0.2]), 1.5) == -math.inf


@pytest.mark.parametrize("alpha, expected", [
    (1e308, -math.inf), (1.0, -math.inf), (-1e308, math.inf), (0.0, math.inf), (-0.0, math.inf)])
def test_threshold_at_an_extreme_level_clamps_without_overflow(alpha, expected):
    """``(n + 1) * (1 - alpha)`` overflows to +/-inf at |alpha| near 1e308, and
    ``math.ceil`` of it raised ``OverflowError``."""
    assert quantile_threshold(make_store([0.1, 0.2, 0.3]), alpha) == expected
    assert quantile_threshold(CalibrationStore(), alpha) == math.inf


@given(
    scores=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=25),
    alphas=st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_threshold_nonincreasing_in_alpha(scores, alphas):
    store = make_store(scores)
    alphas = sorted(alphas)
    thresholds = [quantile_threshold(store, a) for a in alphas]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


@given(
    scores=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=25),
    alpha=st.floats(-0.2, 1.2),
)
@settings(max_examples=150, deadline=None)
def test_threshold_matches_scan_oracle(scores, alpha):
    store = make_store(scores)
    assert quantile_threshold(store, alpha) == quantile_threshold_scan(store.scores, alpha)


# -------------------------------------------------------- prediction sets

def test_set_infinite_threshold_all_labels():
    pred = build_prediction_set([0.7, 0.2, 0.1], math.inf, 0.5, P3)
    assert pred.labels == frozenset({0, 1, 2})


def test_set_negative_infinite_threshold_empty():
    pred = build_prediction_set([0.7, 0.2, 0.1], -math.inf, 0.5, P3)
    assert pred.labels == frozenset()
    assert pred.size == 0


def test_set_hand_enumerated():
    # label scores are [0, 0.8, 1 + 0.1] so only label 0 clears 0.5
    pred = build_prediction_set([0.7, 0.2, 0.1], 0.5, 0.0, P3)
    assert pred.labels == frozenset({0})
    assert 0 in pred and 1 not in pred


def test_set_size_matches_set():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = rng.dirichlet(np.ones(7))
        params = ScoreParams(xi=0.1, k_reg=1, n_labels=7)
        thr = float(rng.uniform(0, 1.5))
        u = float(rng.random())
        assert prediction_set_size(p, thr, u, params) == build_prediction_set(
            p, thr, u, params
        ).size


def test_set_monotone_in_threshold():
    rng = np.random.default_rng(9)
    p = rng.dirichlet(np.ones(10))
    params = ScoreParams(xi=0.1, k_reg=1, n_labels=10)
    prev = frozenset()
    for thr in np.linspace(0.0, 1.6, 12):
        cur = build_prediction_set(p, float(thr), 0.3, params).labels
        assert prev <= cur
        prev = cur


# ----------------------------------------------------- calibration stores

def test_insert_keeps_sorted():
    store = make_store([0.1, 0.3])
    store.insert(0.25)
    assert store.scores == [0.1, 0.25, 0.3]


def test_insert_into_empty():
    store = CalibrationStore()
    store.insert(0.5)
    assert store.scores == [0.5] and len(store) == 1


def test_insert_duplicate_multiset():
    store = make_store([0.1, 0.3])
    store.insert(0.3)
    assert store.scores == [0.1, 0.3, 0.3]


def test_store_sorts_its_input():
    store = CalibrationStore([0.3, 0.1, 0.2])
    assert store.scores == [0.1, 0.2, 0.3]
    assert quantile_threshold(store, 0.5) == 0.2


TIED = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -1.0])
SCORES = st.one_of(TIED, st.floats(-1e3, 1e3, allow_nan=False))
STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), SCORES),
    st.tuples(st.just("insert_each"), SCORES),
    st.tuples(st.just("merge"), st.lists(SCORES, max_size=100)),
    st.tuples(st.just("rank"), SCORES),
    st.tuples(st.just("kth"), st.integers(0, 10**6)),
), max_size=60)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(initial=st.lists(SCORES, max_size=40), ops=STORE_OPS,
       block_size=st.sampled_from([4, 64]), merge_from=st.sampled_from([1, 3]))
def test_store_equals_insort_on_a_list(initial, ops, block_size, merge_from):
    """With blocks of at most 4 scores, splits and merges over many blocks occur; with
    64, most stores keep one block. A merge puts 1 or 3 scores on into a block with
    numpy. The store must read as ``bisect.insort`` on a list, 0.0 told from -0.0 by
    repr."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "BLOCK_SIZE", block_size)
        patch.setattr(scoring, "MERGE_FROM", merge_from)
        store, ref = CalibrationStore(initial), sorted(initial)
        for op, arg in ops:
            if op == "insert":
                store.insert(arg)
                bisect.insort(ref, arg)
            elif op == "insert_each":
                scoring.insert_each([store], [arg])
                bisect.insort(ref, arg)
            elif op == "merge":
                store.merge(np.array(arg, dtype=float))
                for score in arg:
                    bisect.insort(ref, score)
            elif op == "rank":
                assert store.rank(arg) == bisect.bisect_left(ref, arg)
                assert scoring.rank_fractions([store], [arg]) == [
                    1.0 - bisect.bisect_left(ref, arg) / (len(ref) + 1)]
            elif ref:
                assert repr(store.kth(arg % len(ref))) == repr(ref[arg % len(ref)])
            assert [repr(v) for v in store.scores] == [repr(v) for v in ref]
            assert len(store) == len(ref)


# ------------------------------------------------------------- alpha_bar

def test_alpha_bar_interior_value():
    # rank of 0.25 among [0.1,0.2,0.3,0.4] puts the sup at 1 - 2/5
    store = make_store([0.1, 0.2, 0.3, 0.4])
    fast = optimal_alpha_bar(store, 0.25)
    assert fast == pytest.approx(0.6)
    assert abs(fast - alpha_bar_grid(store.scores, 0.25)) <= 1e-4 + 1e-12


def test_alpha_bar_below_min():
    store = make_store([0.1, 0.2, 0.3, 0.4])
    fast = optimal_alpha_bar(store, 0.05)
    assert fast == pytest.approx(1.0)
    assert abs(fast - alpha_bar_grid(store.scores, 0.05)) <= 1e-4 + 1e-12


def test_alpha_bar_above_max():
    store = make_store([0.1, 0.2, 0.3, 0.4])
    fast = optimal_alpha_bar(store, 0.9)
    assert fast == pytest.approx(0.2)
    assert abs(fast - alpha_bar_grid(store.scores, 0.9)) <= 1e-4 + 1e-12


def test_alpha_bar_empty_store_convention():
    assert optimal_alpha_bar(CalibrationStore(), 0.7) == 1.0


@given(
    scores=st.lists(st.integers(0, 40), min_size=1, max_size=12),
    true_int=st.integers(-5, 45),
    alpha=st.floats(0.01, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_coverage_identity(scores, true_int, alpha):
    """Levels below alpha_bar cover the score, levels above do not.

    The sup itself is not attained (the threshold drops one rank exactly at
    alpha_bar), so the boundary and its float neighborhood are excluded.
    """
    store = make_store(s / 40 for s in scores)
    true_score = true_int / 40 + 1e-9  # keep clear of exact score ties
    ab = optimal_alpha_bar(store, true_score)
    assume(abs(alpha - ab) > 1e-9)
    covered = true_score <= quantile_threshold(store, alpha)
    assert (alpha < ab) == covered
