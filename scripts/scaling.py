"""Per-step cost of gmocp N3J1, egmocp N5J4, mocp and coma against the number of
models M, the horizon T and the number of labels K.

Usage (from the repository root):

    python3 scripts/scaling.py src [--models 8 16 32 64 128 256 1024] [--steps 2000]
                                   [--labels 20]

``src`` is the source tree to measure (the directory that holds ``gmocp``),
so two checkouts can be compared with one copy of this script. Each
(policy, M, T, K) point runs in its own fresh interpreter over a stream of K
labels, the default model mix repeated to M models and a gradual shift. The
stream is consumed as it is generated, so only the policy's own state grows
with T; only the ``policy.step`` calls are timed. The script prints a table
of per-step p50 and p99 in microseconds and the GMOCP/MOCP p50 ratio per
(M, T, K), and then one JSON line with every figure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

POLICIES = (("gmocp", 3, 1), ("egmocp", 5, 4), ("mocp", None, None), ("coma", None, None))
MODELS = (8, 16, 32, 64, 128, 256, 1024)
STEPS = (2000,)
LABELS = (20,)
SEED = 0


def label(policy, n, j) -> str:
    return policy if n is None else f"{policy}-N{n}J{j}"


def measure(policy: str, n, j, n_models: int, steps: int, n_labels: int) -> dict:
    """Per-step times of one run, in this interpreter (gmocp must be importable)."""
    from time import perf_counter_ns

    import numpy as np

    from gmocp.policies import make_policy
    from gmocp.runner import DEFAULT_PROFILES, parse_config
    from gmocp.streams import generate_stream

    profiles = [DEFAULT_PROFILES[m % len(DEFAULT_PROFILES)] for m in range(n_models)]
    doc = {"policy": policy, "policy_params": {} if n is None else {"N": n, "J": j},
           "stream": {"profiles": profiles, "schedule": "gradual", "horizon": steps,
                      "n_labels": n_labels}}
    cfg = parse_config(doc)
    pol = make_policy(cfg.policy, cfg.policy_params, SEED)
    times = np.empty(steps)
    for i, s in enumerate(generate_stream(cfg.stream, master_seed=SEED)):
        start = perf_counter_ns()
        pol.step(s.probs, s.true_label)
        times[i] = perf_counter_ns() - start
    p50, p99 = np.percentile(times / 1e3, [50, 99])
    return {"policy": label(policy, n, j), "M": n_models, "K": n_labels, "T": steps,
            "step_us_p50": float(p50), "step_us_p99": float(p99)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="source tree that holds the gmocp package")
    parser.add_argument("--models", type=int, nargs="+", default=MODELS)
    parser.add_argument("--steps", type=int, nargs="+", default=STEPS, help="horizons T")
    parser.add_argument("--labels", type=int, nargs="+", default=LABELS, help="label counts K")
    parser.add_argument("--one", nargs=3, metavar=("POLICY", "N", "J"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one:  # child: one point, printed as JSON
        policy, n, j = args.one
        n, j = (None, None) if n == "-" else (int(n), int(j))
        print(json.dumps(measure(policy, n, j, args.models[0], args.steps[0], args.labels[0])))
        return

    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    grid = [(m, t, k) for m in args.models for t in args.steps for k in args.labels]
    points = []
    for n_models, steps, n_labels in grid:
        for policy, n, j in POLICIES:
            cmd = [sys.executable, os.path.abspath(__file__), args.src, "--one", policy,
                   "-" if n is None else str(n), "-" if j is None else str(j),
                   "--models", str(n_models), "--steps", str(steps), "--labels", str(n_labels)]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
            points.append(json.loads(out.stdout.strip().splitlines()[-1]))

    by = {(p["policy"], p["M"], p["T"], p["K"]): p for p in points}
    ratios = {key: by[("gmocp-N3J1",) + key]["step_us_p50"] / by[("mocp",) + key]["step_us_p50"]
              for key in grid}
    print(f"{'M':>5} {'T':>8} {'K':>5} " + " ".join(f"{label(*p) + ' p50/p99':>24}"
                                                     for p in POLICIES)
          + f" {'gmocp/mocp p50':>15}")
    for key in grid:
        cells = [by[(label(*p),) + key] for p in POLICIES]
        print("{:>5} {:>8} {:>5} ".format(*key)
              + " ".join(f"{c['step_us_p50']:>11.1f} {c['step_us_p99']:>12.1f}" for c in cells)
              + f" {ratios[key]:>15.3f}")
    print(json.dumps({"points": points, "gmocp_over_mocp_p50": {
        f"M={m} T={t} K={k}": r for (m, t, k), r in ratios.items()}}))


if __name__ == "__main__":
    main()
