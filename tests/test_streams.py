"""Synthetic stream generation, severity schedules and CSV round-trips."""

import numpy as np
import pytest

from gmocp.streams import (
    ModelProfile,
    StreamConfig,
    StreamFormatError,
    generate_step,
    generate_stream,
    load_stream,
    save_stream,
    severity_at,
)


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
    for step in generate_stream(cfg):
        assert int(np.argmax(step.probs[0])) == step.true_label


def test_random_access_matches_sequential():
    cfg = cfg_for(["high", "low"], n_labels=8, horizon=30, master_seed=3)
    seq = list(generate_stream(cfg))
    for t in (1, 13, 30):
        direct = generate_step(cfg, t)
        assert direct.true_label == seq[t - 1].true_label
        for a, b in zip(direct.probs, seq[t - 1].probs):
            assert np.array_equal(a, b)


def test_identical_profiles_same_substream_identical_probs():
    """Model m's probabilities depend only on (seed, t, m) and its own profile."""
    c1 = cfg_for(["high", "low"], n_labels=8, horizon=5, master_seed=9)
    c2 = cfg_for(["high", "medium"], n_labels=8, horizon=5, master_seed=9)
    s1 = generate_step(c1, 3)
    s2 = generate_step(c2, 3)
    assert np.array_equal(s1.probs[0], s2.probs[0])
    assert not np.array_equal(s1.probs[1], s2.probs[1])


def test_probs_are_simplexes():
    cfg = cfg_for(["high", "medium", "low"], n_labels=20, horizon=40)
    for step in generate_stream(cfg):
        for p in step.probs:
            assert p.shape == (20,)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_top1_calibration_and_severity_monotonicity():
    """Frozen signal constants: high >= 0.85 and low <= 0.4 at severity 0;
    every profile's top-1 accuracy is non-increasing in severity."""
    cfg = cfg_for(["high", "medium", "low"], n_labels=20, horizon=60_000,
                  batch_size=1, master_seed=5)
    hits = np.zeros((6, 3))
    counts = np.zeros(6)
    for step in generate_stream(cfg):
        counts[step.severity] += 1
        for m, p in enumerate(step.probs):
            hits[step.severity, m] += int(np.argmax(p) == step.true_label)
    acc = hits / counts[:, None]
    assert acc[0, 0] >= 0.85
    assert acc[0, 2] <= 0.4
    # allow sampling noise on the monotone trend (~1e4 samples per level)
    for m in range(3):
        assert np.all(np.diff(acc[:, m]) <= 0.02)


def test_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile("amazing")
    with pytest.raises(ValueError):
        ModelProfile("high", noise_scale=-1.0)
    with pytest.raises(ValueError):
        ModelProfile("high", temperature=0.0)
    with pytest.raises(ValueError):
        StreamConfig(model_profiles=(), horizon=10)
    with pytest.raises(ValueError):
        cfg_for(["high"], schedule="linear")


# ------------------------------------------------------------ file format

def test_save_load_round_trip(tmp_path):
    cfg = cfg_for(["high", "low"], n_labels=6, horizon=20, master_seed=2)
    path = tmp_path / "stream.csv"
    steps = list(generate_stream(cfg))
    save_stream(steps, 6, path)
    loaded = list(load_stream(path))
    assert len(loaded) == 20
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
