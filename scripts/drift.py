"""Paired drift report between two source trees on the paper-default configurations.

Usage (from the repository root):

    python3 scripts/drift.py <src_a> <src_b> [--seeds 0-15] [--horizon 6000]
                             [--output drift.json]

``src_a`` and ``src_b`` are source trees (each the directory that holds ``gmocp``).
Each tree runs in its own fresh interpreter: the seven paper-default
configurations (gmocp and egmocp at N3J1 and N5J4, mocp, coma, aci) on gradual
and sudden streams, one run per seed. Both trees see the same seeds, and at equal
``streams.STREAM_VERSION`` the same streams, so each seed gives a paired
difference b - a. For coverage, ``avg_width``, ``single_width`` and
``width_under_k`` the report holds, per configuration, the two means, their
difference, the standard error of the paired differences and the difference in
those standard errors (``z``; null when every paired difference is equal, and so
the standard error 0, and the difference is not 0). It prints every metric with
|z| > 2 and writes the JSON report to ``--output`` (stdout when not given).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

from scaling import label  # scripts/ is on the path when this file runs

CONFIGS = (("gmocp", 3, 1), ("gmocp", 5, 4), ("egmocp", 3, 1), ("egmocp", 5, 4),
           ("mocp", None, None), ("coma", None, None), ("aci", None, None))
SCHEDULES = ("gradual", "sudden")
METRICS = ("coverage", "avg_width", "single_width", "width_under_k")


def parse_seeds(text: str) -> list:
    """``"0-15"`` or ``"0,3,7"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def measure(seeds, horizon: int) -> dict:
    """{"<config>/<schedule>": {metric: [value per seed]}} for the importable gmocp."""
    from gmocp.runner import DEFAULT_PROFILES, parse_config, run_seed
    from gmocp.streams import ModelProfile, StreamConfig, generate_stream

    out = {f"{label(*c)}/{s}": {m: [] for m in METRICS} for c in CONFIGS for s in SCHEDULES}
    for schedule in SCHEDULES:
        stream_cfg = StreamConfig(model_profiles=tuple(ModelProfile(q) for q in DEFAULT_PROFILES),
                                  schedule=schedule, horizon=horizon)
        for seed in seeds:
            steps = list(generate_stream(stream_cfg, master_seed=seed))
            for policy, n, j in CONFIGS:
                doc = {"policy": policy, "stream": {"schedule": schedule, "horizon": horizon}}
                if n is not None:
                    doc["policy_params"] = {"N": n, "J": j}
                row, _ = run_seed(parse_config(doc), seed, steps=steps)
                for metric in METRICS:
                    out[f"{label(policy, n, j)}/{schedule}"][metric].append(getattr(row, metric))
    return out


def paired(a: list, b: list) -> dict:
    """Means, difference b - a, and that difference in standard errors of the pairs."""
    n = len(a)
    diffs = [y - x for x, y in zip(a, b)]
    diff = sum(diffs) / n
    var = sum((d - diff) ** 2 for d in diffs) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(var / n)
    z = diff / se if se > 0 else (0.0 if diff == 0 else None)
    return {"mean_a": sum(a) / n, "mean_b": sum(b) / n, "diff": diff, "se": se, "z": z}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-15"))
    parser.add_argument("--horizon", type=int, default=6000)
    parser.add_argument("--output")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:  # one tree, importable from PYTHONPATH: per-seed metrics as JSON
        print(json.dumps(measure(args.seeds, args.horizon)))
        return

    seeds = ",".join(map(str, args.seeds))
    procs = []
    for src in (args.src_a, args.src_b):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        cmd = [sys.executable, os.path.abspath(__file__), src, src, "--child",
               "--seeds", seeds, "--horizon", str(args.horizon)]
        procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True))
    runs = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"drift: {proc.args} exited with {proc.returncode}")
        runs.append(json.loads(out.strip().splitlines()[-1]))

    report = {"src_a": args.src_a, "src_b": args.src_b, "seeds": args.seeds,
              "horizon": args.horizon, "configs": {}}
    moved = []
    for key, metrics in runs[0].items():
        report["configs"][key] = {m: paired(metrics[m], runs[1][key][m]) for m in METRICS}
        for m, cell in report["configs"][key].items():
            if cell["z"] is None or abs(cell["z"]) > 2:
                moved.append(f"{key} {m}: {cell['mean_a']:.4f} -> {cell['mean_b']:.4f} "
                             f"(z = {cell['z']})")
    report["moved"] = moved
    print("\n".join(moved) if moved else "no metric moved by more than 2 standard errors",
          file=sys.stderr)
    text = json.dumps(report, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
