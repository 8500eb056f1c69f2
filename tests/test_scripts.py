"""The two-tree comparison, scripts/drift.py, and the scaling runner, scripts/scaling.py:
their pure parts, one case's digest loop and one child of the run protocol."""

import argparse
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from gmocp.policies import POLICY_NAMES, StepRecord
from gmocp.runner import parse_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def drift(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import drift
    return drift


def test_parse_seeds_reads_ranges_and_lists(drift):
    assert drift.parse_seeds("0-3") == [0, 1, 2, 3]
    assert drift.parse_seeds("0,3,7") == [0, 3, 7]
    assert drift.parse_seeds("5-6,2,9-9") == [5, 6, 2, 9]


@pytest.mark.parametrize("text", ["5-2", "0,0", "0-3,2"])
def test_seeds_that_give_no_pair_or_one_pair_twice_are_a_usage_error(drift, text, capsys):
    with pytest.raises(argparse.ArgumentTypeError):
        drift.parse_seeds(text)
    with pytest.raises(SystemExit) as exit_info:
        drift.main(["a", "b", "--seeds", text])
    assert exit_info.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_paired_mean_standard_error_and_z(drift):
    cell = drift.paired([1.0, 1.0, 1.0], [2.0, 3.0, 4.0])
    se = math.sqrt(1 / 3)  # differences 1, 2, 3: variance 1 over 3 pairs
    assert cell == {"mean_a": 1.0, "mean_b": 3.0, "diff": 2.0, "se": se, "z": 2.0 / se}
    assert drift.paired([0.5, 0.25], [0.5, 0.25])["z"] == 0.0


def test_paired_z_is_null_when_every_pair_moves_alike(drift):
    cell = drift.paired([1.0, 2.0], [1.5, 2.5])
    assert cell["se"] == 0.0 and cell["diff"] == 0.5 and cell["z"] is None


def test_record_digest_keeps_every_bit(drift):
    def digest(labels=(3,), **fields):
        rec = StepRecord(**{"t": 1, "chosen_model": 0, "set_size": 1, "err": 0, **fields})
        return hashlib.sha256(drift.record_bytes(rec, frozenset(labels))).hexdigest()

    assert digest(chosen_loss=-0.0) != digest(chosen_loss=0.0)
    assert digest(chosen_loss=0.1) != digest(chosen_loss=float(np.nextafter(0.1, 1.0)))
    assert digest(alpha_bars=None) != digest(alpha_bars=())
    assert digest(alpha_bars=(0.5,)) == digest(alpha_bars=(np.float64(0.5),))
    # label 2 moved from the subset to the set
    assert digest(subset=(1, 2), labels=(3,)) != digest(subset=(1,), labels=(2, 3))
    # every field but wall_nanos is packed
    changed = {"t": 2, "chosen_model": 1, "set_size": 2, "err": 1, "node": 0,
               "subset": (0,), "chosen_loss": 1.0, "alpha_bars": (0.0,)}
    hashed = [f.name for f in dataclasses.fields(StepRecord) if f.name != "wall_nanos"]
    assert sorted(changed) == sorted(hashed)
    assert len({digest(), *(digest(**{name: changed[name]}) for name in hashed)}) == 9
    assert digest(wall_nanos=5) == digest()


def test_cases_at_two_seeds_and_t3000_are_the_62_exact_output_cases(drift):
    paper = ("gmocp-N3J1", "gmocp-N5J4", "egmocp-N3J1", "egmocp-N5J4", "mocp", "coma", "aci")
    expected = {f"{c}/{s}/seed{seed}/track={track}" for c in paper
                for s in ("gradual", "sudden") for seed in (0, 1)
                for track in ((0,) if c in ("coma", "aci") else (0, 1))}
    expected |= {f"{c}/M=256" for c in ("gmocp-N1J1", "gmocp-N3J1", "gmocp-N5J4", "egmocp-N5J4")}
    expected |= {f"{p}/{kind}" for p in ("gmocp", "egmocp", "mocp", "coma", "aci")
                 for kind in ("tied", "K=1000")}
    cases = list(drift.cases([0, 1], 3000))
    names = [name for name, *_ in cases]
    assert len(names) == len(set(names)) == 62 and set(names) == expected
    for name, doc, seed, steps, key in cases:
        cfg = parse_config(doc)  # every case is a valid config
        assert (key is None) == (not name.endswith("/track=0"))
        if key is not None:
            assert name.startswith(f"{key}/seed{seed}/") and cfg.stream.horizon == 3000


def test_paired_cases_follow_seeds_and_horizon_and_the_rest_stay_fixed(drift):
    cases = list(drift.cases(range(16), 6000))
    paired = [(doc, seed) for _, doc, seed, _, key in cases if key is not None]
    assert len(paired) == 7 * 2 * 16 and len(cases) == len(paired) + 34
    assert {seed for _, seed in paired} == set(range(16))
    assert all(doc["stream"]["horizon"] == 6000 for doc, _ in paired)
    tracked = [doc for name, doc, *_ in cases if name.endswith("/track=1")]
    assert len(tracked) == 20 and all(doc["stream"]["horizon"] == 3000 for doc in tracked)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_case_digest_is_reproducible_and_sees_a_setting_move(drift, policy):
    def digest(**params):
        doc = {"policy": policy, "policy_params": params, "stream": {"horizon": 60}}
        return drift.run_case(doc, 0, None)[0]

    first = digest()
    assert digest() == first
    assert digest(target_alpha=0.1000001) != first


def test_a_scaling_child_returns_one_point(drift):
    import scaling  # on the path through the drift fixture

    src = str(ROOT / "src")
    [point] = scaling.run_trees(scaling.__file__, [src], src, "--one", "0", "--models", "8",
                                "--steps", "50", "--labels", "20")
    assert (point["policy"], point["M"], point["T"], point["K"]) == ("gmocp-N3J1", 8, 50, 20)
    assert math.isfinite(point["step_us_p50"]) and point["step_us_p50"] <= point["step_us_p99"]
