"""Experiment orchestration: JSON configs, seed sweeps, CSV/JSON outputs.

A run is a pure function of the config contents: per-step wall time is
measured internally but the runtime column is written as 0.0 unless timing
is requested, so repeated runs produce byte-identical files. Rows (and the
header) are flushed per line and carry their ``config_id``; with ``resume``
enabled, (config_id, seed) pairs found in an existing results file are skipped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import streams
from .graph import GraphParams
from .metrics import compute_metrics
from .policies import POLICY_NAMES, PolicyConfig, make_policy
from .scoring import ScoreParams
from .streams import DEFAULT_PROFILES  # noqa: F401  (re-exported)
from .streams import ModelProfile, StreamConfig, generate_stream, load_stream

SUMMARY_METRICS = ("coverage", "avg_width", "single_width", "runtime", "width_under_k")

RESULT_FIELDS = ("policy", "N", "J", "seed") + SUMMARY_METRICS + ("config_id",)


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


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    policy: str = "gmocp"
    policy_params: PolicyConfig
    stream: StreamConfig | None = None
    stream_path: str | None = None
    seeds: tuple = (0,)
    output: str = "results"
    width_cap: int = 40

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"policy must be one of {POLICY_NAMES}, got {self.policy!r}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        repeated = [seed for i, seed in enumerate(self.seeds) if seed in self.seeds[:i]]
        if repeated:
            raise ValueError(f"seeds must not repeat; seed {repeated[0]} appears more than once")
        if self.width_cap < 1:
            raise ValueError(f"width_cap must be at least 1, got {self.width_cap}")
        if (self.stream is None) == (self.stream_path is None):
            raise ValueError("exactly one of stream / stream_path required")
        if self.policy == "egmocp" and self.policy_params.beta == 0.0:
            raise ValueError("egmocp requires beta > 0")
        if self.policy in ("gmocp", "egmocp") and self.policy_params.graph is None:
            raise ValueError(f"{self.policy} requires graph parameters (policy_params.graph)")

    @property
    def n_links(self) -> int:
        g = self.policy_params.graph
        return g.max_links if g is not None else 0

    @property
    def n_selective(self) -> int:
        g = self.policy_params.graph
        return g.n_selective if g is not None else 0

    @cached_property
    def _stream_sha256(self) -> str:
        """The sha256 of the stream file's bytes, read once per config."""
        digest = hashlib.sha256()
        with open(self.stream_path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()

    def config_id(self) -> str:
        """Policy, N, J and a hash of every field that can change a result, and of
        ``streams.STREAM_VERSION`` when the stream is synthetic or of the stream
        file's bytes when it is not."""
        doc = asdict(self)
        del doc["seeds"], doc["output"], doc["policy_params"]["track_alpha_bar"]
        if self.stream is not None:
            doc["stream_version"] = streams.STREAM_VERSION
        else:
            doc["stream_sha256"] = self._stream_sha256
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:8]
        return f"{self.policy}-N{self.n_links}-J{self.n_selective}-{digest}"


# JSON type of each base kind; a field's kind is its annotation or a name given below
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "None": type(None),
               "object": dict, "list": list}


def _value(name: str, kind: str, value):
    """``value`` converted to ``kind`` ("a or b", "a | b", "list of a"); other types are an error."""
    for alt in kind.replace(" | ", " or ").split(" or "):
        if alt.startswith("list of ") and isinstance(value, list):
            return tuple(_value(f"{name}[{i}]", alt[8:], v) for i, v in enumerate(value))
        if isinstance(value, _JSON_TYPES.get(alt, ())) and isinstance(value, bool) == (alt == "bool"):
            return float(value) if alt == "float" else value
    raise ValueError(f"config key {name!r} must be {kind}, got {value!r}")


def _keys(cls, **kinds) -> dict:
    """Config keys of ``cls``: each field's annotation, replaced or (by None) dropped by ``kinds``."""
    keys = {f.name: f.type for f in fields(cls)} | kinds
    return {key: kind for key, kind in keys.items() if kind is not None}


TOP_KEYS = _keys(ExperimentConfig, policy_params="object", stream="object", stream_path=None,
                 seeds="list of int")
POLICY_KEYS = _keys(PolicyConfig, n_models=None, score=None, graph=None, xi="float", k_reg="int",
                    N="int", J="int", eta_e="float or list of float")
STREAM_KEYS = _keys(StreamConfig, model_profiles=None, profiles="list")
PROFILE_KEYS = _keys(ModelProfile)

# policy_params key -> the policies that read it; any other policy rejects the key
_GRAPH, _SFOGD = ("gmocp", "egmocp"), ("gmocp", "egmocp", "mocp", "coma")
READ_BY = dict.fromkeys(("target_alpha", "alpha_init", "xi", "k_reg"), POLICY_NAMES) | {
    "N": _GRAPH, "J": _GRAPH, "eta_e": _GRAPH, "beta": ("egmocp",),
    "epsilon": _GRAPH + ("mocp",), "track_alpha_bar": _GRAPH + ("mocp",),
    "eta": _SFOGD, "shared_u": _SFOGD, "coma_gamma": ("coma",), "aci_lr": ("aci",),
}


def _settings(doc, where: str, keys: dict) -> dict:
    """The settings ``doc`` makes, converted; an unknown key or a wrong JSON type is an error."""
    if not isinstance(doc, dict):
        raise ValueError(f"config {where or 'document'} must be a JSON object, got {doc!r}")
    prefix = where + "." if where else ""
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown config key {prefix + key!r}; expected one of {sorted(keys)}")
    return {key: _value(prefix + key, keys[key], value) for key, value in doc.items()}


def parse_stream_config(doc: dict) -> StreamConfig:
    """A synthetic ``StreamConfig`` from the keys of a ``stream`` document."""
    settings = _settings(doc, "stream", STREAM_KEYS)
    if "profiles" in settings:
        settings["model_profiles"] = tuple(
            ModelProfile(item) if isinstance(item, str)
            else ModelProfile(**_settings(item, f"stream.profiles[{i}]", PROFILE_KEYS))
            for i, item in enumerate(settings.pop("profiles")))
    return StreamConfig(**settings)


def parse_config(doc: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    Only the keys the document sets are passed on, so every other setting
    keeps its dataclass default; an unknown key or a value of the wrong JSON
    type raises a ``ValueError`` that names the key.
    """
    top = _settings(doc, "", TOP_KEYS)
    policy = top.setdefault("policy", ExperimentConfig.policy)
    stream_doc = top.pop("stream", {})
    if "file" in stream_doc:
        path = _settings(stream_doc, "stream", {"file": "str"})["file"]
        # resolved, so that one file reached by two paths has one id; symlinks are
        # resolved before "..", as the OS does when it opens the path
        top["stream_path"] = os.path.realpath(os.path.join(base_dir, path))
        first = next(load_stream(top["stream_path"]))
        n_models, n_labels = first.probs.shape
    else:
        top["stream"] = stream = parse_stream_config(stream_doc)
        n_models, n_labels = stream.n_models, stream.n_labels

    p = _settings(top.pop("policy_params", {}), "policy_params", POLICY_KEYS)
    for key in p:
        if policy in POLICY_NAMES and policy not in READ_BY[key]:
            raise ValueError(f"config key 'policy_params.{key}' is not read by policy {policy!r}")
    n, j, eta_e = p.pop("N", 3), p.pop("J", 1), p.pop("eta_e", 0.2)
    if policy in _GRAPH:
        p["graph"] = GraphParams(j, n, (eta_e,) * j if isinstance(eta_e, float) else eta_e)
    if policy == "egmocp":
        p.setdefault("beta", 0.05)
    score = ScoreParams(xi=p.pop("xi", 0.1), k_reg=p.pop("k_reg", 1), n_labels=n_labels)
    top["policy_params"] = PolicyConfig(n_models=1 if policy == "aci" else n_models, score=score, **p)
    top["output"] = os.path.join(base_dir, top.get("output", ExperimentConfig.output))
    return ExperimentConfig(**top)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def run_seed(cfg: ExperimentConfig, seed: int, timing: bool = False, steps=None,
             on_step=None):
    """Run one policy over one stream realization; returns (row, RunMetrics).

    ``steps`` can supply a pre-generated stream (e.g. shared across policies);
    otherwise the stream is produced from the config. The policy's ``step`` checks
    each step's model and label counts against the config. The metrics are counted
    as the steps arrive and no step record is kept, so a caller that needs
    per-step data passes ``on_step``, a callable that receives each
    ``StepRecord`` in order.
    """
    policy = make_policy(cfg.policy, cfg.policy_params, seed)
    if steps is None and cfg.stream_path is not None:
        steps = load_stream(cfg.stream_path)
    elif steps is None:
        steps = generate_stream(cfg.stream, master_seed=seed)
    wall_nanos = 0

    def records():
        nonlocal wall_nanos
        for step in steps:
            _, rec = policy.step(step.probs, step.true_label)
            if on_step is not None:
                on_step(rec)
            if timing:
                wall_nanos += rec.wall_nanos
            yield rec

    metrics = compute_metrics(records(), width_cap=cfg.width_cap)
    row = ResultRow(
        policy=cfg.policy, N=cfg.n_links, J=cfg.n_selective, seed=seed,
        coverage=metrics.coverage, avg_width=metrics.avg_width,
        single_width=metrics.single_width, runtime=wall_nanos / 1e9,
        width_under_k=metrics.width_under_k, config_id=cfg.config_id(),
    )
    return row, metrics


def _run_traced(cfg: ExperimentConfig, seed: int, timing: bool, path: str):
    """``run_seed`` that writes each step record to the trace CSV ``path`` as it
    arrives; the file takes that name only once the seed completes."""
    names = ("t", "chosen_model", "node", "set_size", "err") + (("wall_nanos",) if timing else ())
    partial = path + ".partial"
    fh = open(partial, "w", newline="")
    try:
        with fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            result = run_seed(cfg, seed, timing=timing, on_step=lambda r: writer.writerow(
                [getattr(r, name) for name in names]))
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)
    return result


def _run_configs(cfgs, resume: bool, timing: bool, trace: bool):
    """Run every seed of every config into the first config's output files.

    Returns the rows run now, and each config's rows in the CSV by config id.
    """
    output = cfgs[0].output
    csv_path = output + ".csv"
    # an empty file is what a run killed before its first row leaves
    resuming = resume and os.path.exists(csv_path) and os.path.getsize(csv_path) > 0
    done = {(r.config_id, r.seed) for r in read_rows(csv_path)} if resuming else set()
    ids = [cfg.config_id() for cfg in cfgs]
    rows = []
    with open(csv_path, "a" if resuming else "w", newline="", buffering=1) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not resuming:
            writer.writerow(RESULT_FIELDS)
        for cfg, config_id in zip(cfgs, ids):
            for seed in cfg.seeds:
                if (config_id, seed) in done:
                    continue
                if trace:
                    row, _ = _run_traced(cfg, seed, timing, f"{output}_trace_seed{seed}.csv")
                else:
                    row, _ = run_seed(cfg, seed, timing=timing)
                rows.append(row)
                writer.writerow(row.as_list())
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

    Every grid point uses the config's one ``eta_e`` at each of its J nodes,
    so a per-node ``eta_e`` whose entries differ is an error. Returns each
    config's rows in the CSV, by config id.
    """
    if cfg.policy_params.graph is None:
        raise ValueError("sweep requires a graph-based policy (gmocp or egmocp)")
    for name, values in (("N", n_values), ("J", j_values)):
        if not values or len(set(values)) < len(values):
            raise ValueError(f"sweep {name} values must be non-empty and distinct, "
                             f"got {list(values)}")
    eta_e = cfg.policy_params.graph.eta_e
    if len(set(eta_e)) > 1:
        raise ValueError("sweep gives every node one exploration coefficient, but "
                         f"policy_params.eta_e is {list(eta_e)}")
    grid = [
        replace(cfg, policy_params=replace(cfg.policy_params,
                                           graph=GraphParams.uniform(j, n, eta_e[0])))
        for n in n_values
        for j in j_values
    ]
    return _run_configs(grid, resume, timing, trace=False)[1]
