"""Aggregate metrics and the exact hindsight-regret comparator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmocp.metrics import RunMetrics, best_constant_loss, compute_metrics, hindsight_regret
from gmocp.oracles import best_constant_loss_grid
from gmocp.policies import StepRecord


def rec(t, size, err):
    return StepRecord(t=t, chosen_model=0, set_size=size, err=err)


def test_all_covered_singletons():
    m = compute_metrics([rec(t, 1, 0) for t in range(1, 11)])
    assert m.coverage == 100.0
    assert m.avg_width == 1.0
    assert m.single_width == 100.0


def test_coverage_fraction():
    m = compute_metrics([rec(1, 2, 1), rec(2, 2, 0), rec(3, 2, 0), rec(4, 2, 0)])
    assert m.coverage == 75.0


def test_avg_width():
    m = compute_metrics([rec(1, 2, 0), rec(2, 4, 0)])
    assert m.avg_width == 3.0
    assert m.single_width == 0.0


def test_width_under_cap_counts_covered_only():
    records = [rec(1, 5, 0), rec(2, 50, 0), rec(3, 5, 1), rec(4, 5, 0)]
    m = compute_metrics(records, width_cap=40)
    # size < 40 AND covered: steps 1 and 4
    assert m.width_under_k == 50.0


def test_empty_records_rejected():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_global_metrics_permutation_invariant():
    rng = np.random.default_rng(0)
    records = [rec(t, int(rng.integers(1, 10)), int(rng.random() < 0.1))
               for t in range(1, 101)]
    m1 = compute_metrics(records)
    perm = [records[i] for i in rng.permutation(100)]
    m2 = compute_metrics(perm)
    assert (m1.coverage, m1.avg_width, m1.single_width, m1.width_under_k) == (
        m2.coverage, m2.avg_width, m2.single_width, m2.width_under_k
    )


def array_metrics(records, width_cap):
    """The array formulas that ``compute_metrics`` used before it counted in one pass."""
    err = np.array([r.err for r in records], dtype=float)
    size = np.array([r.set_size for r in records], dtype=float)
    covered = 1.0 - err
    return RunMetrics(
        coverage=100.0 * float(covered.mean()),
        avg_width=float(size.mean()),
        single_width=100.0 * float(np.mean((size == 1) & (covered == 1))),
        width_under_k=100.0 * float(np.mean((size < width_cap) & (covered == 1))),
        n_steps=len(records),
    )


@st.composite
def runs(draw, n_labels=20):
    """The (err, set size) steps of a run, and a width cap."""
    steps = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, n_labels)),
                          min_size=1, max_size=60))
    records = [rec(t, size, err) for t, (err, size) in enumerate(steps, start=1)]
    return records, draw(st.integers(1, n_labels + 3))


@given(run=runs())
@settings(max_examples=200, deadline=None)
def test_one_pass_metrics_equal_the_array_formulas(run):
    records, width_cap = run
    m = compute_metrics((r for r in records), width_cap=width_cap)
    ref = array_metrics(records, width_cap)
    for name in ("coverage", "avg_width", "single_width", "width_under_k"):
        assert getattr(m, name).hex() == getattr(ref, name).hex(), name
    assert m.n_steps == ref.n_steps


# ---------------------------------------------------------------- regret

def test_constant_alpha_bar_zero_regret():
    ab = np.full(50, 0.37)
    loss, argmin = best_constant_loss(ab, 0.1, -0.05, 1.05)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert argmin == pytest.approx(0.37)
    # a policy pinned at the constant has zero regret
    assert hindsight_regret(np.zeros(50), ab[:, None], 0.1, 0.05) == pytest.approx(0.0)


def test_two_step_matches_grid():
    ab = np.array([0.2, 0.6])
    exact, _ = best_constant_loss(ab, 0.1, -0.05, 1.05)
    grid = best_constant_loss_grid(ab, 0.1, -0.05, 1.05)
    assert exact <= grid + 1e-12
    assert grid - exact <= 2 * 1e-4


def test_comparator_against_itself_zero():
    rng = np.random.default_rng(4)
    ab = rng.uniform(0, 1, 120)
    best, argmin = best_constant_loss(ab, 0.1, -0.05, 1.05)
    losses = 0.1 * (ab - argmin) - np.minimum(0.0, ab - argmin)
    assert hindsight_regret(losses, ab[:, None], 0.1, 0.05) == pytest.approx(0.0, abs=1e-10)


def test_multi_model_comparator_takes_best_model():
    ab = np.column_stack([np.full(30, 0.5), np.full(30, 0.2)])
    # chosen losses all zero: regret is minus the best fixed comparator (zero here)
    assert hindsight_regret(np.zeros(30), ab, 0.1, 0.05) == pytest.approx(0.0, abs=1e-15)


def test_regret_matrix_shape_validation():
    with pytest.raises(ValueError):
        hindsight_regret(np.zeros(3), np.zeros(3), 0.1, 0.05)


@given(
    ab=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60),
    target=st.floats(0.05, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_exact_minimum_never_above_grid(ab, target):
    ab = np.array(ab)
    exact, argmin = best_constant_loss(ab, target, -0.05, 1.05)
    grid = best_constant_loss_grid(ab, target, -0.05, 1.05)
    assert exact <= grid + 1e-9
    assert -0.05 <= argmin <= 1.05
