"""Exact output check between two source trees: do they give the same outputs, bit for bit?

Usage (from the repository root):

    python3 scripts/outputs.py <src_a> <src_b>

``src_a`` and ``src_b`` are source trees (each the directory that holds ``gmocp``).
Each tree runs in its own fresh interpreter, the two side by side, over these cases:

- the seven paper-default configurations (gmocp and egmocp at N3J1 and N5J4, mocp,
  coma, aci) on gradual and sudden streams, seeds 0 and 1, T=3000, with
  ``track_alpha_bar`` off and, for the policies that read it, on;
- gmocp N1J1, N3J1 and N5J4 and egmocp N5J4 at M=256, which defer their stores'
  inserts to a score log;
- all five policies on a stream of tied rows (integers 0-3 over their sum, xi=0)
  and on a stream of K=1000 labels.

A case's digest hashes every ``StepRecord`` field but ``wall_nanos``, every step's
label set, and the final ``log_w``, ``alphas``, ``grad_sq``, calibration stores and
COMA's shared level and its gradient sum. The script prints the cases whose
digests differ and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

from drift import CONFIGS, SCHEDULES  # scripts/ is on the path when this file runs
from scaling import label

PAPER_SEEDS, PAPER_HORIZON = (0, 1), 3000
MANY_MODELS = (("gmocp", 1, 1), ("gmocp", 3, 1), ("gmocp", 5, 4), ("egmocp", 5, 4))
MANY_M, MANY_HORIZON = 256, 2000
ALL_POLICIES = ("gmocp", "egmocp", "mocp", "coma", "aci")
TIED_LABELS, TIED_HORIZON = 20, 2000
WIDE_LABELS, WIDE_HORIZON = 1000, 600
TRACKED = ("gmocp", "egmocp", "mocp")  # the policies that read track_alpha_bar


def canon(value):
    """``value`` with every float as its exact hex form, so equal digests mean equal bits."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return [canon(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def tied_steps(seed: int, n_models: int):
    """A stream of rows of integers 0-3 over their sum: ties and zeros in nearly every row."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(TIED_HORIZON, n_models, TIED_LABELS)).astype(float)
    counts[..., 0][counts.sum(axis=2) == 0] = 1.0
    probs = counts / counts.sum(axis=2, keepdims=True)
    labels = rng.integers(TIED_LABELS, size=TIED_HORIZON).tolist()
    return list(zip(probs, labels))


def cases():
    """(name, config document, seed, steps or None for the config's own stream)."""
    for schedule in SCHEDULES:
        for seed in PAPER_SEEDS:
            for policy, n, j in CONFIGS:
                for track in (False, True) if policy in TRACKED else (False,):
                    params = {} if n is None else {"N": n, "J": j}
                    if track:
                        params["track_alpha_bar"] = True
                    doc = {"policy": policy, "policy_params": params,
                           "stream": {"schedule": schedule, "horizon": PAPER_HORIZON}}
                    name = f"{label(policy, n, j)}/{schedule}/seed{seed}/track={int(track)}"
                    yield name, doc, seed, None
    from gmocp.runner import DEFAULT_PROFILES
    profiles = [DEFAULT_PROFILES[m % len(DEFAULT_PROFILES)] for m in range(MANY_M)]
    for policy, n, j in MANY_MODELS:
        doc = {"policy": policy, "policy_params": {"N": n, "J": j},
               "stream": {"profiles": profiles, "horizon": MANY_HORIZON}}
        yield f"{label(policy, n, j)}/M={MANY_M}", doc, 0, None
    tied = tied_steps(0, len(DEFAULT_PROFILES))
    for policy in ALL_POLICIES:
        doc = {"policy": policy, "policy_params": {"xi": 0.0}, "stream": {"n_labels": TIED_LABELS}}
        yield f"{policy}/tied", doc, 0, tied
    for policy in ALL_POLICIES:
        doc = {"policy": policy, "stream": {"n_labels": WIDE_LABELS, "horizon": WIDE_HORIZON}}
        yield f"{policy}/K={WIDE_LABELS}", doc, 0, None


def digest(doc: dict, seed: int, steps) -> str:
    """The sha256 of one run's step records, label sets and final state."""
    from gmocp.policies import make_policy
    from gmocp.runner import parse_config
    from gmocp.streams import generate_stream

    cfg = parse_config(doc)
    policy = make_policy(cfg.policy, cfg.policy_params, seed)
    if steps is None:
        steps = ((s.probs, s.true_label) for s in generate_stream(cfg.stream, master_seed=seed))
    h = hashlib.sha256()
    for probs, true_label in steps:
        pred, rec = policy.step(probs, true_label)
        fields = [getattr(rec, f.name) for f in dataclasses.fields(rec) if f.name != "wall_nanos"]
        h.update(repr(canon(fields + [sorted(pred.labels)])).encode())
    state = [policy.log_w, policy.alphas, policy.grad_sq,
             getattr(policy, "shared_alpha", None), getattr(policy, "shared_grad_sq", None)]
    h.update(repr(canon(state)).encode())
    for store in policy.calibrations:
        h.update(np.fromiter(store, dtype=float).tobytes() + b"|")
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:  # one tree, importable from PYTHONPATH: {case: digest} as JSON
        print(json.dumps({name: digest(doc, seed, steps) for name, doc, seed, steps in cases()}))
        return

    procs = []
    for src in (args.src_a, args.src_b):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        cmd = [sys.executable, os.path.abspath(__file__), src, src, "--child"]
        procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True))
    runs = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"outputs: {proc.args} exited with {proc.returncode}")
        runs.append(json.loads(out.strip().splitlines()[-1]))

    differ = [name for name in runs[0] if runs[0][name] != runs[1][name]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(runs[0]) - len(differ)} of {len(runs[0])} cases equal")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
