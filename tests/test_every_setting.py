"""Every numeric config key over its whole range, for every policy: a config runs
clean (finite weights, levels, stored scores and metrics) or ``gmocp run`` refuses
it in one line and exits 2. The keys come from the runner's key tables, so a new
key is fuzzed as soon as it is added there."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmocp import runner
from gmocp.cli import main
from gmocp.policies import make_policy
from gmocp.runner import DEFAULT_PROFILES, load_config, read_rows
from gmocp.streams import generate_stream

MAGNITUDES = (5e-324, 1e-100, 0.0, 0.5, 1.0, 1e100, 1e308)
FLOATS = MAGNITUDES + tuple(-x for x in MAGNITUDES if x)
SIZES = (0, 1, 2, 7, 1000, 10**12)  # 10**12 asks for terabytes, refused at allocation
HORIZON_MAX = 50


def number_kind(kind: str):
    """("int" or "float", whether in a list) for a key of JSON type ``kind`` that takes a
    number, from its first alternative that does; None for any other key."""
    for alt in kind.replace(" | ", " or ").split(" or "):
        base = alt.removeprefix("list of ")
        if base in ("int", "float"):
            return base, base != alt
    return None


def numeric_keys(policy: str) -> list:
    """(section, key, values) for every numeric key a config of ``policy`` may set."""
    tables = [("top", runner.TOP_KEYS), ("stream", runner.STREAM_KEYS),
              ("profiles", runner.PROFILE_KEYS),
              ("policy_params", {key: kind for key, kind in runner.POLICY_KEYS.items()
                                 if policy in runner.READ_BY[key]})]
    keys = []
    for section, table in tables:
        for key, kind in table.items():
            number = number_kind(kind)
            if number is None:
                continue
            base, in_list = number
            values = FLOATS if base == "float" else SIZES
            if key == "horizon":
                values = tuple(v for v in values if v <= HORIZON_MAX) + (HORIZON_MAX,)
            keys.append((section, key, tuple([v] for v in values) if in_list else values))
    return keys


@st.composite
def documents(draw):
    """A config of a drawn policy at T <= 50 with one to three numeric keys drawn."""
    policy = draw(st.sampled_from(runner.POLICY_NAMES))
    doc = {"policy": policy, "policy_params": {}, "seeds": [0], "output": "results",
           "stream": {"horizon": 20, "profiles": [{"quality": q} for q in DEFAULT_PROFILES]}}
    keys = draw(st.lists(st.sampled_from(numeric_keys(policy)), min_size=1, max_size=3,
                         unique_by=lambda entry: entry[:2]))
    for section, key, values in keys:
        value = draw(st.sampled_from(values), label=key)
        if section == "top":
            doc[key] = value
        elif section == "profiles":
            for profile in doc["stream"]["profiles"]:
                profile[key] = value
        else:
            doc[section][key] = value
    return doc


def test_every_numeric_key_is_drawn():
    drawn = {key for policy in runner.POLICY_NAMES for _, key, _ in numeric_keys(policy)}
    assert {"seeds", "width_cap", "n_labels", "horizon", "batch_size", "noise_scale",
            "temperature", "xi", "k_reg", "N", "J", "eta_e", "target_alpha", "eta", "epsilon",
            "beta", "coma_gamma", "aci_lr", "alpha_init"} <= drawn
    assert not drawn & {"policy", "output", "schedule", "shared_u", "track_alpha_bar"}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=documents())
def test_a_config_runs_clean_or_is_refused_in_one_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", path])
        if code == 2:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            return
        assert code == 0, err.getvalue()
        cfg = load_config(path)
        policy = make_policy(cfg.policy, cfg.policy_params, cfg.seeds[0])
        for step in generate_stream(cfg.stream, master_seed=cfg.seeds[0]):
            policy.step(step.probs, step.true_label)
        state = [*policy.log_w, *policy.alphas, *policy.grad_sq]
        state += [getattr(policy, name, 0.0) for name in ("shared_alpha", "shared_grad_sq")]
        state += [score for store in policy.calibrations for score in store]
        assert np.isfinite(state).all()
        row = read_rows(cfg.output + ".csv")[0]
        assert np.isfinite([row.coverage, row.avg_width, row.single_width,
                            row.width_under_k]).all()
