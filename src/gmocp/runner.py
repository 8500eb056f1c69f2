"""Experiment orchestration: JSON configs, seed sweeps, CSV/JSON outputs.

A run is a pure function of the config contents: per-step wall time is
measured internally but the runtime column is written as 0.0 unless timing
is requested, so repeated runs produce byte-identical files. Rows are
flushed per seed and carry their ``config_id``; with ``resume`` enabled,
(config_id, seed) pairs found in an existing results file are skipped.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .graph import GraphParams
from .metrics import compute_metrics
from .policies import POLICY_NAMES, PolicyConfig, make_policy
from .scoring import ScoreParams
from .streams import ModelProfile, StreamConfig, generate_stream, load_stream

SUMMARY_METRICS = ("coverage", "avg_width", "single_width", "runtime", "width_under_k")

RESULT_FIELDS = ("policy", "N", "J", "seed") + SUMMARY_METRICS + ("config_id",)

# default mixed-quality model pool: mostly strong with a medium and a weak model
DEFAULT_PROFILES = ("high",) * 6 + ("medium", "low")


@dataclass(frozen=True)
class ResultRow:
    policy: str
    N: int
    J: int
    seed: int
    coverage: float
    avg_width: float
    single_width: float
    runtime: float
    width_under_k: float
    config_id: str

    def as_list(self):
        """Values in ``RESULT_FIELDS`` order; csv writes floats by ``repr``."""
        return [getattr(self, name) for name in RESULT_FIELDS]


@dataclass(frozen=True)
class ExperimentConfig:
    policy: str
    policy_params: PolicyConfig
    stream: StreamConfig | None
    stream_path: str | None
    seeds: tuple
    output: str
    width_cap: int = 40

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"policy must be one of {POLICY_NAMES}, got {self.policy!r}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if (self.stream is None) == (self.stream_path is None):
            raise ValueError("exactly one of stream / stream_path required")

    @property
    def n_links(self) -> int:
        g = self.policy_params.graph
        return g.max_links if g is not None else 0

    @property
    def n_selective(self) -> int:
        g = self.policy_params.graph
        return g.n_selective if g is not None else 0

    def config_id(self) -> str:
        payload = json.dumps(
            {
                "policy": self.policy,
                "params": _policy_params_dict(self.policy_params),
                "stream": _stream_dict(self.stream) if self.stream else self.stream_path,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()[:8]
        return f"{self.policy}-N{self.n_links}-J{self.n_selective}-{digest}"


def _policy_params_dict(p: PolicyConfig) -> dict:
    d = {
        "n_models": p.n_models, "target_alpha": p.target_alpha, "eta": p.eta,
        "epsilon": p.epsilon, "beta": p.beta, "coma_gamma": p.coma_gamma,
        "aci_lr": p.aci_lr, "alpha_init": p.alpha_init, "shared_u": p.shared_u,
        "xi": p.score.xi, "k_reg": p.score.k_reg, "n_labels": p.score.n_labels,
    }
    if p.graph is not None:
        d["N"] = p.graph.max_links
        d["J"] = p.graph.n_selective
        d["eta_e"] = list(p.graph.eta_e)
    return d


def _stream_dict(s: StreamConfig) -> dict:
    return {
        "profiles": [[m.quality, m.noise_scale, m.temperature] for m in s.model_profiles],
        "n_labels": s.n_labels, "horizon": s.horizon,
        "batch_size": s.batch_size, "schedule": s.schedule,
    }


def _parse_profiles(raw) -> tuple:
    profiles = []
    for item in raw:
        if isinstance(item, str):
            profiles.append(ModelProfile(item))
        else:
            profiles.append(ModelProfile(**item))
    return tuple(profiles)


def parse_stream_config(doc: dict) -> StreamConfig:
    return StreamConfig(
        model_profiles=_parse_profiles(doc.get("profiles", DEFAULT_PROFILES)),
        n_labels=int(doc.get("n_labels", 20)),
        horizon=int(doc.get("horizon", 6000)),
        batch_size=int(doc.get("batch_size", 500)),
        schedule=doc.get("schedule", "gradual"),
    )


def parse_config(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    policy = doc.get("policy", "gmocp")
    stream_doc = doc.get("stream", {})

    stream = stream_path = None
    if isinstance(stream_doc, dict) and "file" in stream_doc:
        stream_path = os.path.join(base_dir, stream_doc["file"])
        first = next(load_stream(stream_path))
        n_models, n_labels = len(first.probs), len(first.probs[0])
    else:
        stream = parse_stream_config(stream_doc if isinstance(stream_doc, dict) else {})
        n_models, n_labels = stream.n_models, stream.n_labels

    p = doc.get("policy_params", {})
    if policy == "aci":
        n_models = 1

    graph = None
    if policy in ("gmocp", "egmocp"):
        j = int(p.get("J", 1))
        n = int(p.get("N", 3))
        eta_e = p.get("eta_e", 0.2)
        if isinstance(eta_e, (int, float)):
            graph = GraphParams.uniform(j, n, float(eta_e))
        else:
            graph = GraphParams(j, n, tuple(float(e) for e in eta_e))

    beta = float(p.get("beta", 0.05 if policy == "egmocp" else 0.0))
    params = PolicyConfig(
        n_models=n_models,
        score=ScoreParams(
            xi=float(p.get("xi", 0.1)),
            k_reg=int(p.get("k_reg", 1)),
            n_labels=n_labels,
        ),
        graph=graph,
        target_alpha=float(p.get("target_alpha", 0.1)),
        eta=float(p.get("eta", 0.05)),
        epsilon=float(p.get("epsilon", 0.5)),
        beta=beta,
        coma_gamma=float(p.get("coma_gamma", 0.01)),
        aci_lr=float(p.get("aci_lr", 0.05)),
        alpha_init=p.get("alpha_init"),
        shared_u=bool(p.get("shared_u", False)),
        track_alpha_bar=bool(p.get("track_alpha_bar", False)),
    )
    return ExperimentConfig(
        policy=policy,
        policy_params=params,
        stream=stream,
        stream_path=stream_path,
        seeds=tuple(int(s) for s in doc.get("seeds", [0])),
        output=os.path.join(base_dir, doc.get("output", "results")),
        width_cap=int(doc.get("width_cap", 40)),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def run_seed(cfg: ExperimentConfig, seed: int, timing: bool = False, steps=None):
    """Run one policy over one stream realization; returns (row, records).

    ``steps`` can supply a pre-generated stream (e.g. shared across policies);
    otherwise the stream is produced from the config. The first step's model
    and label counts are checked against the config.
    """
    policy = make_policy(cfg.policy, cfg.policy_params, seed)
    if steps is None and cfg.stream_path is not None:
        steps = load_stream(cfg.stream_path)
    elif steps is None:
        steps = generate_stream(cfg.stream, master_seed=seed)
    steps = iter(steps)
    first = next(steps, None)
    if first is not None:
        m, k = len(first.probs), len(first.probs[0])
        # ACI predicts from the stream's first model, whatever the stream's M
        want = (m if cfg.policy == "aci" else cfg.policy_params.n_models,
                cfg.policy_params.score.n_labels)
        if (m, k) != want:
            raise ValueError(f"stream has M={m} models and K={k} labels, but config "
                             f"{cfg.config_id()} expects M={want[0]} and K={want[1]}")
        steps = itertools.chain((first,), steps)
    records = []
    for step in steps:
        _, rec = policy.step(step.probs, step.true_label)
        records.append(rec)
    metrics = compute_metrics(records, width_cap=cfg.width_cap)
    runtime = sum(r.wall_nanos for r in records) / 1e9 if timing else 0.0
    row = ResultRow(
        policy=cfg.policy, N=cfg.n_links, J=cfg.n_selective, seed=seed,
        coverage=metrics.coverage, avg_width=metrics.avg_width,
        single_width=metrics.single_width, runtime=runtime,
        width_under_k=metrics.width_under_k, config_id=cfg.config_id(),
    )
    return row, records


def _write_trace(path: str, records, timing: bool) -> None:
    fields = ["t", "chosen_model", "node", "set_size", "err"]
    if timing:
        fields.append("wall_nanos")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for r in records:
            row = [r.t, r.chosen_model, r.node, r.set_size, r.err]
            if timing:
                row.append(r.wall_nanos)
            writer.writerow(row)


def _run_configs(cfgs, resume: bool, timing: bool, trace: bool):
    """Run every seed of every config into the first config's output files.

    Returns the rows run now, and each config's rows in the CSV by config id.
    """
    output = cfgs[0].output
    csv_path = output + ".csv"
    resuming = resume and os.path.exists(csv_path)
    done = {(r.config_id, r.seed) for r in read_rows(csv_path)} if resuming else set()
    ids = [cfg.config_id() for cfg in cfgs]
    rows = []
    with open(csv_path, "a" if resuming else "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not resuming:
            writer.writerow(RESULT_FIELDS)
        for cfg, config_id in zip(cfgs, ids):
            for seed in cfg.seeds:
                if (config_id, seed) in done:
                    continue
                row, records = run_seed(cfg, seed, timing=timing)
                rows.append(row)
                writer.writerow(row.as_list())
                fh.flush()
                if trace:
                    _write_trace(f"{output}_trace_seed{seed}.csv", records, timing)
    all_rows = read_rows(csv_path)
    by_id = {config_id: [r for r in all_rows if r.config_id == config_id] for config_id in ids}
    write_summary(output + "_summary.json", by_id)
    return rows, by_id


def run_experiment(cfg: ExperimentConfig, resume: bool = False, timing: bool = False,
                   trace: bool = False) -> list:
    """Run every seed, flushing one CSV row per completed seed; returns the new rows."""
    return _run_configs([cfg], resume, timing, trace)[0]


def read_rows(csv_path: str) -> list:
    """Rows of a results CSV; a header other than ``RESULT_FIELDS`` is an error."""
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RESULT_FIELDS:
            raise ValueError(
                f"{csv_path}: header {reader.fieldnames} is not {list(RESULT_FIELDS)}; "
                "a results file from another version cannot be read or resumed"
            )
        return [ResultRow(r["policy"], int(r["N"]), int(r["J"]), int(r["seed"]),
                          *(float(r[name]) for name in SUMMARY_METRICS), r["config_id"])
                for r in reader]


def write_summary(path: str, grouped: dict) -> None:
    """Summary JSON: per config id, mean and std of each aggregate metric."""
    summary = {}
    for config_id, rows in grouped.items():
        stats = {}
        for metric in SUMMARY_METRICS:
            vals = np.array([getattr(r, metric) for r in rows], dtype=float)
            stats[metric] = {"mean": float(vals.mean()), "std": float(vals.std())}
        summary[config_id] = stats
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_sweep(cfg: ExperimentConfig, n_values, j_values, resume: bool = False,
              timing: bool = False) -> dict:
    """Cross product over graph sizes; one combined CSV plus summary JSON.

    Returns each config's rows in the CSV, by config id.
    """
    if cfg.policy_params.graph is None:
        raise ValueError("sweep requires a graph-based policy (gmocp or egmocp)")
    eta_e = cfg.policy_params.graph.eta_e[0]
    grid = [
        replace(cfg, policy_params=replace(cfg.policy_params,
                                           graph=GraphParams.uniform(j, n, eta_e)))
        for n in n_values
        for j in j_values
    ]
    return _run_configs(grid, resume, timing, trace=False)[1]
