"""Synthetic stream generation, severity schedules and CSV round-trips."""

from dataclasses import replace

import numpy as np
import pytest

from gmocp.streams import (
    DEFAULT_PROFILES,
    ModelProfile,
    StreamConfig,
    StreamFormatError,
    block_steps,
    generate_step,
    generate_stream,
    load_stream,
    save_stream,
    severity_at,
)
from reference_stream import reference_step


def cfg_for(profiles, **kw):
    return StreamConfig(model_profiles=tuple(ModelProfile(**p) if isinstance(p, dict)
                                             else ModelProfile(p) for p in profiles), **kw)


# ------------------------------------------------------------- schedules

def test_gradual_severity_positions():
    assert severity_at(1, "gradual", 500) == 0
    assert severity_at(501, "gradual", 500) == 1
    assert severity_at(2501, "gradual", 500) == 5
    assert severity_at(3001, "gradual", 500) == 4


def test_sudden_severity_positions():
    assert severity_at(1, "sudden", 500) == 0
    assert severity_at(501, "sudden", 500) == 5
    assert severity_at(1001, "sudden", 500) == 0


def test_stationary_severity():
    assert all(severity_at(t, "stationary", 500) == 0 for t in (1, 777, 12345))


def test_gradual_full_cycle():
    got = [severity_at(1 + 10 * b, "gradual", 10) for b in range(12)]
    assert got == [0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 1]


def test_severity_rejects_bad_t():
    with pytest.raises(ValueError):
        severity_at(0, "gradual", 500)


# ------------------------------------------------------------ generation

def test_noiseless_high_quality_always_top1():
    cfg = cfg_for([{"quality": "high", "noise_scale": 0.0}], n_labels=10, horizon=50)
    for step in generate_stream(cfg, master_seed=0):
        assert int(np.argmax(step.probs[0])) == step.true_label


def test_random_access_matches_sequential():
    cfg = cfg_for(["high", "low"], n_labels=8, horizon=30)
    seq = list(generate_stream(cfg, master_seed=3))
    for t in (1, 13, 30):
        direct = generate_step(cfg, t, master_seed=3)
        assert direct.true_label == seq[t - 1].true_label
        for a, b in zip(direct.probs, seq[t - 1].probs):
            assert np.array_equal(a, b)


def test_identical_profiles_same_substream_identical_probs():
    """Model m's probabilities depend only on (seed, t, m) and its own profile."""
    c1 = cfg_for(["high", "low"], n_labels=8, horizon=5)
    c2 = cfg_for(["high", "medium"], n_labels=8, horizon=5)
    s1 = generate_step(c1, 3, master_seed=9)
    s2 = generate_step(c2, 3, master_seed=9)
    assert np.array_equal(s1.probs[0], s2.probs[0])
    assert not np.array_equal(s1.probs[1], s2.probs[1])


def test_probs_are_simplexes():
    cfg = cfg_for(["high", "medium", "low"], n_labels=20, horizon=40)
    for step in generate_stream(cfg, master_seed=0):
        for p in step.probs:
            assert p.shape == (20,)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_top1_calibration_and_severity_monotonicity():
    """Frozen signal constants: high >= 0.85 and low <= 0.4 at severity 0;
    every profile's top-1 accuracy is non-increasing in severity."""
    cfg = cfg_for(["high", "medium", "low"], n_labels=20, horizon=60_000,
                  batch_size=1)
    hits = np.zeros((6, 3))
    counts = np.zeros(6)
    for step in generate_stream(cfg, master_seed=5):
        counts[step.severity] += 1
        for m, p in enumerate(step.probs):
            hits[step.severity, m] += int(np.argmax(p) == step.true_label)
    acc = hits / counts[:, None]
    assert acc[0, 0] >= 0.85
    assert acc[0, 2] <= 0.4
    # allow sampling noise on the monotone trend (~1e4 samples per level)
    for m in range(3):
        assert np.all(np.diff(acc[:, m]) <= 0.02)


CUSTOM = [{"quality": q, "noise_scale": 0.7, "temperature": 1.3} for q in ("high", "medium", "low")]


def assert_step_is(step, reference):
    t, label, severity, probs = reference
    assert (step.t, step.true_label, step.severity) == (t, label, severity)
    assert step.probs.dtype == np.float64 and step.probs.flags.c_contiguous
    assert step.probs.shape == (len(probs), len(probs[0]))
    for got, want in zip(step.probs, probs):
        assert np.array_equal(got, want)


# one generator per row of the block, that is per step: every schedule, M in {1, 3, 8},
# K in {2, 13, 20}, seeds 0, 7 and 2**40, default and non-default profiles; the horizon
# crosses a block boundary of generate_stream
@pytest.mark.parametrize("schedule, profiles, n_labels, seed", [
    ("gradual", DEFAULT_PROFILES, 20, 0),
    ("sudden", CUSTOM, 13, 7),
    ("stationary", ["low"], 2, 2**40),
    ("gradual", CUSTOM, 2, 2**40),
    ("sudden", [{"quality": "medium", "noise_scale": 0.0}], 20, 0),
    ("stationary", DEFAULT_PROFILES, 13, 7),
])
def test_block_generation_is_bit_identical_to_one_generator_per_row(schedule, profiles,
                                                                    n_labels, seed):
    cfg = cfg_for(profiles, n_labels=n_labels, horizon=1, batch_size=25, schedule=schedule)
    cfg = replace(cfg, horizon=block_steps(cfg) + 12)
    steps = list(generate_stream(cfg, master_seed=seed))
    assert len(steps) == cfg.horizon
    for t, step in enumerate(steps, start=1):
        reference = reference_step(cfg, t, seed)
        assert_step_is(step, reference)
        assert_step_is(generate_step(cfg, t, master_seed=seed), reference)


def test_random_access_beyond_two_to_the_32_steps():
    """A step counter of 2**32 or more enters the seed as two words."""
    cfg = cfg_for(["high", "low"], n_labels=5, horizon=2**32 + 2)
    for t in (2**32 - 1, 2**32, 2**32 + 2):
        assert_step_is(generate_step(cfg, t, master_seed=3), reference_step(cfg, t, 3))


def test_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile("amazing")
    with pytest.raises(ValueError):
        ModelProfile("high", noise_scale=-1.0)
    for temperature in (0.0, 5e-324, 9.9e-101):
        with pytest.raises(ValueError, match="temperature must be >= 1e-100, got "):
            ModelProfile("high", temperature=temperature)
    with pytest.raises(ValueError, match="noise_scale must be at most 1e[+]100 in magnitude"):
        ModelProfile("high", noise_scale=1e101)
    with pytest.raises(ValueError):
        StreamConfig(model_profiles=(), horizon=10)
    with pytest.raises(ValueError):
        cfg_for(["high"], schedule="linear")
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        cfg_for(["high"], batch_size=0)


def test_extreme_noise_over_the_least_temperature_gives_finite_simplexes():
    """Logits reach about 1e201, far inside float range (a RuntimeWarning fails the test)."""
    cfg = cfg_for([{"quality": q, "noise_scale": 1e100, "temperature": 1e-100}
                   for q in ("high", "medium", "low")], horizon=60, batch_size=10)
    for step in generate_stream(cfg, master_seed=0):
        assert np.isfinite(step.probs).all() and (step.probs >= 0).all()
        assert np.allclose(step.probs.sum(axis=1), 1.0)


@pytest.mark.parametrize("t", [0, 11])
def test_generate_step_rejects_t_outside_the_horizon(t):
    with pytest.raises(ValueError, match=f"t={t} outside \\[1, 10\\]"):
        generate_step(cfg_for(["high"], horizon=10), t, master_seed=0)


# ------------------------------------------------------------ file format

def test_save_load_round_trip(tmp_path):
    cfg = cfg_for(["high", "low"], n_labels=6, horizon=20)
    path = tmp_path / "stream.csv"
    steps = list(generate_stream(cfg, master_seed=2))
    save_stream(steps, 6, path)
    loaded = list(load_stream(path))
    assert len(loaded) == 20
    assert all(s.probs.shape == (2, 6) and s.probs.flags.c_contiguous for s in loaded)
    for a, b in zip(steps, loaded):
        assert (a.t, a.true_label, a.severity) == (b.t, b.true_label, b.severity)
        for pa, pb in zip(a.probs, b.probs):
            assert np.array_equal(pa, pb)  # repr round-trips floats exactly


def write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def test_load_rejects_bad_simplex(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[1, 0, 0, 0, 0.5, 0.3]])
    with pytest.raises(StreamFormatError):
        list(load_stream(path))


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_load_rejects_non_finite_probabilities(tmp_path, bad):
    # nan < 0 and a sum of nan both compare false, so a nan passed the simplex check
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1,p_2",
               [[1, 0, 0, 0, 0.2, 0.3, 0.5],
                [1, 0, 0, 1, bad, 0.5, 0.5]])
    with pytest.raises(StreamFormatError, match="line 3: .*non-finite"):
        list(load_stream(path))


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[1, 0, 0, 0, 1.0]])
    with pytest.raises(StreamFormatError):
        list(load_stream(path))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "time,label,severity,model,p_0,p_1", [])
    with pytest.raises(StreamFormatError):
        list(load_stream(path))


def test_load_rejects_model_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[1, 0, 0, 0, 0.5, 0.5],
                [1, 0, 0, 1, 0.5, 0.5],
                [2, 1, 0, 0, 0.5, 0.5],
                [3, 1, 0, 0, 0.5, 0.5]])
    with pytest.raises(StreamFormatError):
        list(load_stream(path))


def test_load_rejects_bad_model_id_order(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[1, 0, 0, 1, 0.5, 0.5]])
    with pytest.raises(StreamFormatError):
        list(load_stream(path))


def test_load_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[1, 0, 0, 0, "x", 0.5]])
    with pytest.raises(StreamFormatError):
        list(load_stream(path))


@pytest.mark.parametrize("label", [-1, 2])
def test_load_rejects_label_out_of_range(tmp_path, label):
    # a label of -1 would otherwise score the last label through probs[:, -1]
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[1, label, 0, 0, 0.5, 0.5]])
    with pytest.raises(StreamFormatError, match="true_label"):
        list(load_stream(path))


def test_load_rejects_stream_not_starting_at_one(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1",
               [[5, 0, 0, 0, 0.5, 0.5],
                [6, 1, 0, 0, 0.5, 0.5]])
    with pytest.raises(StreamFormatError, match="t=5"):
        list(load_stream(path))


@pytest.mark.parametrize("header, rows, message", [
    ("t,true_label,severity,model_id,q_0,q_1", [], "bad probability columns in "),
    ("t,true_label,severity,model_id", [], "bad probability columns in "),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 6, 0, 0.5, 0.5]],
     "line 2: severity 6 out of range"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 0.5, 0.5], [3, 0, 0, 0, 0.5, 0.5]],
     "line 3: t=3 after t=1"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 0.5, 0.5], [1, 1, 0, 1, 0.5, 0.5]],
     "line 3: inconsistent label/severity at t=1"),
    ("time,label,severity,model,p_0,p_1", [],
     r"bad header in .*: \['time', 'label', 'severity', 'model', 'p_0', 'p_1'\]"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 1.0]], "line 2: 5 fields, expected 6"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, "x", 0.5]],
     "line 2: could not convert string to float: 'x'"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 1.5, -0.5]],
     "line 2: probability vector has negative entries"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 0.5, 0.3]],
     r"line 2: probability vector sums to 0\.8, not 1"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 1, 0.5, 0.5]],
     "line 2: model_id 1, expected 0"),
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 0.5, 0.5], [1, 0, 0, 1, 0.5, 0.5],
                                                [2, 1, 0, 0, 0.5, 0.5], [3, 1, 0, 0, 0.5, 0.5]],
     "t=2: 1 model rows, expected 2"),
    # one mistyped t can break two rules; the row's own t is reported first
    ("t,true_label,severity,model_id,p_0,p_1", [[1, 0, 0, 0, 0.5, 0.5], [1, 0, 0, 1, 0.5, 0.5],
                                                [2, 1, 0, 0, 0.5, 0.5], [4, 1, 0, 1, 0.5, 0.5]],
     "line 5: t=4 after t=2"),
    ("t,true_label,severity,model_id,p_0,p_1", [[5, 2, 0, 0, 0.5, 0.5]],
     "line 2: stream starts at t=5, expected t=1"),
], ids=["columns", "no-columns", "severity", "gap", "label-changes", "header", "field-count",
        "non-numeric", "negative", "sum", "model-id", "model-count", "gap-after-short-step",
        "start-before-label"])
def test_load_names_what_is_wrong(tmp_path, header, rows, message):
    path = tmp_path / "bad.csv"
    write_rows(path, header, rows)
    with pytest.raises(StreamFormatError, match=message):
        list(load_stream(path))


def test_load_rejects_a_file_without_steps(tmp_path):
    path = tmp_path / "empty.csv"
    write_rows(path, "t,true_label,severity,model_id,p_0,p_1", [])
    with pytest.raises(StreamFormatError, match="empty.csv"):
        list(load_stream(path))
