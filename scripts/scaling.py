"""Per-step cost of gmocp N3J1, egmocp N5J4, mocp and coma against the number of
models M, the horizon T and the number of labels K.

Usage (from the repository root):

    python3 scripts/scaling.py src [--models 8 16 32 64 128 256 1024] [--steps 2000]
                                   [--labels 20]

``src`` is the source tree to measure (the directory that holds ``gmocp``),
so two checkouts can be compared with one copy of this script. Each
(policy, M, T, K) point runs three times (the grid runs three times over), each
in its own fresh interpreter, over a stream of K labels, the default model mix
repeated to M models and a gradual shift, and reports the lowest p50 and p99 of
its runs, so one burst of host load cannot move it. The stream is consumed as
it is generated, so only the policy's own state grows with T. The times are
``run_seed``'s own per-step clock, each step record's ``wall_nanos``. The
script prints a table of per-step p50 and p99 in microseconds and the
GMOCP/MOCP p50 ratio per (M, T, K), and then one JSON line with every figure,
each point's runs included.
"""

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
RUNS = 3
PERCENTILES = ("step_us_p50", "step_us_p99")


def label(policy, n, j) -> str:
    return policy if n is None else f"{policy}-N{n}J{j}"


def run_trees(script: str, srcs, *args) -> list:
    """The last JSON line printed by ``script args``, run side by side in a fresh
    interpreter per source tree in ``srcs``, each with its tree importable and one
    numpy thread. A child that fails ends this process."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    procs = [subprocess.Popen([sys.executable, os.path.abspath(script), *args], text=True,
                              env=dict(env, PYTHONPATH=os.path.abspath(src)),
                              stdout=subprocess.PIPE) for src in srcs]
    outs = [proc.communicate()[0] for proc in procs]
    for proc in procs:
        if proc.returncode:
            raise SystemExit(f"{proc.args} exited with {proc.returncode}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outs]


def measure(policy: str, n, j, n_models: int, steps: int, n_labels: int) -> dict:
    """Per-step times of one ``run_seed``, in this interpreter (gmocp must be importable)."""
    import numpy as np

    from gmocp.runner import DEFAULT_PROFILES, parse_config, run_seed

    profiles = [DEFAULT_PROFILES[m % len(DEFAULT_PROFILES)] for m in range(n_models)]
    doc = {"policy": policy, "policy_params": {} if n is None else {"N": n, "J": j},
           "stream": {"profiles": profiles, "schedule": "gradual", "horizon": steps,
                      "n_labels": n_labels}}
    times = []
    run_seed(parse_config(doc), SEED, on_step=lambda record: times.append(record.wall_nanos))
    p50, p99 = np.percentile(np.array(times) / 1e3, [50, 99])
    return {"policy": label(policy, n, j), "M": n_models, "K": n_labels, "T": steps,
            "step_us_p50": float(p50), "step_us_p99": float(p99)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="source tree that holds the gmocp package")
    parser.add_argument("--models", type=int, nargs="+", default=MODELS)
    parser.add_argument("--steps", type=int, nargs="+", default=STEPS, help="horizons T")
    parser.add_argument("--labels", type=int, nargs="+", default=LABELS, help="label counts K")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # index into POLICIES
    args = parser.parse_args(argv)

    if args.one is not None:  # child: one point, printed as JSON
        print(json.dumps(measure(*POLICIES[args.one], args.models[0], args.steps[0],
                                 args.labels[0])))
        return

    grid = [(m, t, k) for m in args.models for t in args.steps for k in args.labels]
    runs = {}
    for _ in range(RUNS):
        for m, t, k in grid:
            for i, policy in enumerate(POLICIES):
                runs.setdefault((label(*policy), m, t, k), []).extend(run_trees(
                    __file__, [args.src], args.src, "--one", str(i),
                    "--models", str(m), "--steps", str(t), "--labels", str(k)))
    by = {key: dict(every[0], runs=[{p: r[p] for p in PERCENTILES} for r in every],
                    **{p: min(r[p] for r in every) for p in PERCENTILES})
          for key, every in runs.items()}
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
    print(json.dumps({"points": list(by.values()), "gmocp_over_mocp_p50": {
        f"M={m} T={t} K={k}": r for (m, t, k), r in ratios.items()}}))


if __name__ == "__main__":
    main()
