"""Two-tree comparison: bit-identity of outputs and paired drift of the paper metrics.

Usage (from the repository root):

    python3 scripts/drift.py <src_a> <src_b> [--seeds 0-15] [--horizon 6000]
                             [--output drift.json]

``src_a`` and ``src_b`` are source trees (each the directory that holds ``gmocp``).
Each runs in a fresh interpreter, the two side by side, over every case of
``cases`` once: the seven paper-default configurations on gradual and sudden
streams at ``--seeds`` and ``--horizon``, and digest-only cases at fixed seeds
and horizons. A digest hashes the packed bytes (``record_bytes``) of every
``StepRecord`` field but ``wall_nanos`` and of every label set, then the final
policy state and stores. Each seed of a paper-default configuration gives paired
differences b - a of coverage, ``avg_width``, ``single_width`` and
``width_under_k``, reported as in ``paired``. The script
prints the cases whose digests differ and every metric with |z| > 2, writes the
JSON report to ``--output`` (stdout when not given), and exits 1 when any
digest differs.
"""

import argparse
import contextlib
import hashlib
import json
import math
import struct
import sys
from functools import lru_cache

import numpy as np

from scaling import label, run_trees  # scripts/ is on the path when this file runs

CONFIGS = (("gmocp", 3, 1), ("gmocp", 5, 4), ("egmocp", 3, 1), ("egmocp", 5, 4),
           ("mocp", None, None), ("coma", None, None), ("aci", None, None))
SCHEDULES = ("gradual", "sudden")
METRICS = ("coverage", "avg_width", "single_width", "width_under_k")
TRACKED = CONFIGS[:5]  # the configurations whose policies read track_alpha_bar
TRACKED_SEEDS, TRACKED_HORIZON = (0, 1), 3000
MANY_MODELS = (("gmocp", 1, 1), ("gmocp", 3, 1), ("gmocp", 5, 4), ("egmocp", 5, 4))
MANY_M, MANY_HORIZON = 256, 2000
TIED_LABELS, TIED_HORIZON = 20, 2000
WIDE_LABELS, WIDE_HORIZON = 1000, 600


def parse_seeds(text: str) -> list:
    """``"0-15"`` or ``"0,3,7"`` (or a mix) as a list of distinct seeds, at least one."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r} must name at least one seed, none twice")
    return seeds


def pack_floats(values) -> bytes:
    """``values``, None or a sequence of floats, as its length (-1 for None) in int64 and
    each float's 8 IEEE bytes."""
    if values is None:
        return struct.pack("<q", -1)
    return struct.pack(f"<q{len(values)}d", len(values), *values)


def record_bytes(rec, labels) -> bytes:
    """A step's record and label set packed so that equal bytes mean equal bits: the ints
    as int64 and ``chosen_loss`` as its IEEE bytes, then ``subset`` and the sorted labels,
    each after its length, then ``alpha_bars`` as ``pack_floats`` packs it."""
    subset, labels = rec.subset, sorted(labels)
    return struct.pack(f"<5qdq{len(subset)}qq{len(labels)}q", rec.t, rec.chosen_model,
                       rec.set_size, rec.err, rec.node, rec.chosen_loss, len(subset),
                       *subset, len(labels), *labels) + pack_floats(rec.alpha_bars)


@lru_cache(maxsize=1)
def stream(cfg, seed: int) -> list:
    """The (probs, true_label) pairs of a synthetic stream, kept while the cases that
    read it run one after another."""
    from gmocp.streams import generate_stream

    return [(s.probs, s.true_label) for s in generate_stream(cfg, master_seed=seed)]


def tied_steps(seed: int, n_models: int):
    """A stream of rows of integers 0-3 over their sum: ties and zeros in nearly every row."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, size=(TIED_HORIZON, n_models, TIED_LABELS)).astype(float)
    counts[..., 0][counts.sum(axis=2) == 0] = 1.0
    probs = counts / counts.sum(axis=2, keepdims=True)
    labels = rng.integers(TIED_LABELS, size=TIED_HORIZON).tolist()
    return list(zip(probs, labels))


def cases(seeds, horizon: int):
    """(name, config document, seed, steps, key) of every case, in run order: the paired
    cases, then with ``track_alpha_bar`` on, at M=256 (where the graph policies defer
    their inserts to a score log), on tied rows and at K=1000. ``steps`` is None for
    the config's own stream, and ``key`` ("<config>/<schedule>") is the paired
    configuration of a case that gives metrics, None for a digest only."""
    runs = [(False, s, horizon) for s in seeds] + [(True, s, TRACKED_HORIZON)
                                                   for s in TRACKED_SEEDS]
    for schedule in SCHEDULES:
        for track, seed, run_horizon in runs:
            for policy, n, j in TRACKED if track else CONFIGS:
                params = {"track_alpha_bar": True} if track else {}
                doc = {"policy": policy,
                       "policy_params": params if n is None else dict(params, N=n, J=j),
                       "stream": {"schedule": schedule, "horizon": run_horizon}}
                key = f"{label(policy, n, j)}/{schedule}"
                name = f"{key}/seed{seed}/track={int(track)}"
                yield name, doc, seed, None, None if track else key
    from gmocp.runner import DEFAULT_PROFILES, POLICY_NAMES
    profiles = [DEFAULT_PROFILES[m % len(DEFAULT_PROFILES)] for m in range(MANY_M)]
    for policy, n, j in MANY_MODELS:
        doc = {"policy": policy, "policy_params": {"N": n, "J": j},
               "stream": {"profiles": profiles, "horizon": MANY_HORIZON}}
        yield f"{label(policy, n, j)}/M={MANY_M}", doc, 0, None, None
    tied = tied_steps(0, len(DEFAULT_PROFILES))
    for policy in POLICY_NAMES:
        doc = {"policy": policy, "policy_params": {"xi": 0.0}, "stream": {"n_labels": TIED_LABELS}}
        yield f"{policy}/tied", doc, 0, tied, None
        doc = {"policy": policy, "stream": {"n_labels": WIDE_LABELS, "horizon": WIDE_HORIZON}}
        yield f"{policy}/K={WIDE_LABELS}", doc, 0, None, None


def run_case(doc: dict, seed: int, steps):
    """The digest and ``RunMetrics`` of one run over ``steps`` (the config's own stream if None)."""
    from gmocp.metrics import compute_metrics
    from gmocp.policies import make_policy
    from gmocp.runner import parse_config

    cfg = parse_config(doc)
    policy = make_policy(cfg.policy, cfg.policy_params, seed)
    h = hashlib.sha256()

    def records():
        for probs, true_label in stream(cfg.stream, seed) if steps is None else steps:
            pred, rec = policy.step(probs, true_label)
            h.update(record_bytes(rec, pred.labels))
            yield rec

    metrics = compute_metrics(records(), width_cap=cfg.width_cap)
    shared = [getattr(policy, a) for a in ("shared_alpha", "shared_grad_sq") if hasattr(policy, a)]
    for values in (policy.log_w, policy.alphas, policy.grad_sq, shared):
        h.update(pack_floats(values))
    for store in policy.calibrations:
        h.update(pack_floats(list(store)))
    return h.hexdigest(), metrics


def paired(a: list, b: list) -> dict:
    """Means, difference b - a, its standard error, and ``z``, the difference in standard
    errors (null when the standard error is 0 and the difference is not)."""
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

    if args.child:  # one tree, importable from PYTHONPATH: digests and metrics as JSON
        digests, metrics = {}, {}
        for name, doc, seed, steps, key in cases(args.seeds, args.horizon):
            digests[name], run = run_case(doc, seed, steps)
            for m in METRICS if key else ():
                metrics.setdefault(key, {}).setdefault(m, []).append(getattr(run, m))
        print(json.dumps({"digests": digests, "metrics": metrics}))
        return

    a, b = run_trees(__file__, (args.src_a, args.src_b), ".", ".", "--child",
                     "--seeds", ",".join(map(str, args.seeds)), "--horizon", str(args.horizon))
    differ = [name for name in a["digests"] if a["digests"][name] != b["digests"][name]]
    configs = {key: {m: paired(a["metrics"][key][m], b["metrics"][key][m]) for m in METRICS}
               for key in a["metrics"]}
    moved = [f"{key} {m}: {c['mean_a']:.4f} -> {c['mean_b']:.4f} (z = {c['z']})"
             for key, cells in configs.items() for m, c in cells.items()
             if c["z"] is None or abs(c["z"]) > 2]
    print(*[f"differs: {name}" for name in differ],
          f"{len(a['digests']) - len(differ)} of {len(a['digests'])} cases equal",
          *(moved or ["no metric moved by more than 2 standard errors"]), sep="\n", file=sys.stderr)
    report = {"src_a": args.src_a, "src_b": args.src_b, "seeds": args.seeds,
              "horizon": args.horizon, "configs": configs, "moved": moved, "differ": differ}
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        print(json.dumps(report, indent=1), file=fh)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
