"""The benchmark's output checks pass on real outputs and fail on corrupted ones.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (  # noqa: E402
    CheckFailed,
    OpChecker,
    check_band,
    check_identical,
    check_reported,
    check_selection,
    check_set_agrees,
    check_top_labels,
    check_weights,
    file_digests,
)
from gmocp.runner import parse_config, run_experiment  # noqa: E402

P = np.array([0.05, 0.4, 0.1, 0.3, 0.15])  # ranking: 1, 3, 4, 2, 0


def test_top_labels_accepts_the_most_probable():
    check_top_labels(P, frozenset({1, 3}))
    check_top_labels(P, frozenset())
    check_top_labels(P, frozenset(range(5)))


def test_top_labels_lets_equal_probabilities_swap():
    tied = np.array([0.3, 0.3, 0.4])
    check_top_labels(tied, frozenset({2, 0}))
    check_top_labels(tied, frozenset({2, 1}))


def test_top_labels_rejects_a_set_that_skips_a_more_probable_label():
    with pytest.raises(CheckFailed):
        check_top_labels(P, frozenset({1, 4}))  # skips label 3


def test_top_labels_rejects_an_unknown_label():
    with pytest.raises(CheckFailed):
        check_top_labels(P, frozenset({1, 7}))


def test_set_agrees_rejects_an_err_that_disagrees_with_the_set():
    check_set_agrees(frozenset({1, 3}), 2, 2, 0, 3)
    with pytest.raises(CheckFailed):
        check_set_agrees(frozenset({1, 3}), 2, 2, 1, 3)
    with pytest.raises(CheckFailed):
        check_set_agrees(frozenset({1, 3}), 2, 2, 0, 4)


def test_set_agrees_rejects_a_wrong_size():
    with pytest.raises(CheckFailed):
        check_set_agrees(frozenset({1, 3}), 3, 3, 0, 3)


def test_selection_rejects_a_model_outside_the_subset_or_a_large_subset():
    check_selection(2, (0, 2), max_links=3)
    with pytest.raises(CheckFailed):
        check_selection(1, (0, 2), max_links=3)
    with pytest.raises(CheckFailed):
        check_selection(0, (0, 1, 2, 3), max_links=3)


def test_weights_reject_a_zero_weight():
    check_weights([1.0, 1e-300, 0.5])
    with pytest.raises(CheckFailed):
        check_weights([1.0, 0.0, 0.5])
    with pytest.raises(CheckFailed):
        check_weights([1.0, float("nan")])


def test_reported_rejects_figures_that_disagree_with_the_records():
    check_reported(90.0, 2.5, 10, 1, 25)
    with pytest.raises(CheckFailed):
        check_reported(90.0, 2.5, 10, 2, 25)
    with pytest.raises(CheckFailed):
        check_reported(90.0, 2.5, 10, 1, 26)


def test_band_rejects_coverage_outside_88_to_92():
    check_band(88.0)
    check_band(92.0)
    with pytest.raises(CheckFailed):
        check_band(87.99)


def _experiment(directory):
    directory.mkdir()
    doc = {"policy": "gmocp", "policy_params": {"N": 3, "J": 1},
           "stream": {"horizon": 300}, "seeds": [0], "output": "r"}
    run_experiment(parse_config(doc, base_dir=str(directory)))
    return [directory / "r.csv", directory / "r_summary.json"]


def test_identical_rejects_one_changed_byte(tmp_path):
    first = _experiment(tmp_path / "a")
    second = _experiment(tmp_path / "b")
    check_identical(file_digests(first), file_digests(second))
    data = bytearray(second[0].read_bytes())
    data[-2] ^= 1
    second[0].write_bytes(bytes(data))
    with pytest.raises(CheckFailed):
        check_identical(file_digests(first), file_digests(second))


def test_op_checker_passes_a_real_run_and_fails_a_corrupted_step(tmp_path):
    from gmocp.policies import make_policy
    from gmocp.streams import generate_stream

    doc = {"policy": "egmocp", "policy_params": {"N": 3, "J": 1},
           "stream": {"horizon": 300}, "seeds": [0], "output": "r"}
    cfg = parse_config(doc, base_dir=str(tmp_path))
    policy = make_policy(cfg.policy, cfg.policy_params, 0)
    checker = OpChecker(chosen=True, max_links=3, band=False)
    last = None
    for step in generate_stream(cfg.stream, master_seed=0):
        pred, record = policy.step(step.probs, step.true_label)
        checker.step(step.probs, step.true_label, pred, record)
        last = (step, pred, record)
    assert checker.n_steps == 300
    check_weights(policy.weights)

    step, pred, record = last
    assert 0 < pred.size < len(step.probs[0])
    ranked = np.argsort(-np.asarray(step.probs[record.chosen_model]), kind="stable")
    skipped = frozenset(int(k) for k in ranked[1:pred.size + 1])  # drops the top label
    corrupted = replace(record, err=int(step.true_label not in skipped))
    checker.step(step.probs, step.true_label, replace(pred, labels=skipped), corrupted)
    assert checker.failures == 1 and "skips" in checker.first_failure
    with pytest.raises(CheckFailed, match="1 steps failed"):
        checker.finish(policy, None, [], None)
