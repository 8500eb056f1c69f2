"""The benchmark's workloads, built from ``--seed`` through the public API of gmocp.

Every workload is fixed work: fixed policy configurations, seeds and
horizons, so quality figures and call counts repeat exactly. An operation
is one (policy configuration, seed) run; it writes the results CSV and the
summary JSON that ``gmocp run`` writes.

- ``paper-default``: the paper's synthetic setting as the acceptance battery
  runs it. Default 8-model pool, 20 labels, T=6000, gradual and sudden
  schedules, seven policy configurations. Each operation
  goes through ``run_experiment`` from a JSON config, so the program
  generates each stream in the loop as ``gmocp run`` does.
- ``many-models``: 256 models (the default mix repeated 32 times), 20
  labels, gradual, T=2000. The stream is generated once in set-up and shared
  through ``run_seed(..., steps=...)``; gmocp N3J1, egmocp N5J4 and mocp.
- ``long-horizon``: default pool, gradual, mocp over T=50 000 with the
  stream generated in the loop, so every model's calibration store grows to
  50 000 scores. Not the graph policies: over such horizons a model weight
  of theirs underflows to exactly 0.0 (egmocp near t=15 000 on every seed
  tried, gmocp near t=32 000 on some seeds), which check (d) rejects; see
  CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace
from itertools import islice
from time import perf_counter_ns

import numpy as np

import gmocp.runner as runner
from gmocp.runner import DEFAULT_PROFILES, RESULT_FIELDS
from gmocp.streams import generate_stream

# (policy, N, J) as the acceptance battery names them, plus COMA and ACI
PAPER_POLICIES = (
    ("gmocp", 3, 1), ("gmocp", 5, 4), ("egmocp", 3, 1), ("egmocp", 5, 4),
    ("mocp", None, None), ("coma", None, None), ("aci", None, None),
)
MANY_POLICIES = (("gmocp", 3, 1), ("egmocp", 5, 4), ("mocp", None, None))

WARMUP_STEPS = 200
STREAM_CHUNK = 100  # steps per timed chunk of set-up stream generation


@dataclass
class Op:
    """One (policy configuration, seed) run."""

    label: str
    cfg: object  # gmocp.runner.ExperimentConfig
    seed: int
    steps: list | None = None  # shared pre-generated stream, else generated in the loop
    band: bool = True  # assert the acceptance coverage band

    @property
    def policy(self) -> str:
        return self.cfg.policy

    @property
    def max_links(self):
        return self.cfg.n_links if self.cfg.policy_params.graph is not None else None

    @property
    def result_csv(self) -> str:
        return self.cfg.output + ".csv"

    @property
    def result_files(self) -> list:
        return [self.result_csv, self.cfg.output + "_summary.json"]

    def run(self) -> None:
        """The timed operation: the run and its result files."""
        if self.steps is None:
            runner.run_experiment(self.cfg)
            return
        row, _ = runner.run_seed(self.cfg, self.seed, steps=self.steps)
        with open(self.result_csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_FIELDS)
            writer.writerow(row.as_list())
        runner.write_summary(self.cfg.output + "_summary.json", {self.cfg.config_id(): [row]})

    def warm_up(self) -> None:
        """A short untimed run through the same code, without result files."""
        if self.steps is None:
            short = replace(self.cfg, stream=replace(self.cfg.stream, horizon=WARMUP_STEPS))
            runner.run_seed(short, self.seed)
        else:
            runner.run_seed(self.cfg, self.seed, steps=self.steps[:WARMUP_STEPS])


@dataclass
class Prepared:
    ops: list
    parse_ns: int  # config writing and parsing
    stream_ns: float = 0.0  # set-up stream generation, chunk-median estimate


def _policy_doc(policy, n, j) -> dict:
    return {} if n is None else {"N": n, "J": j}


def _label(policy, n, j) -> str:
    return policy if n is None else f"{policy}-N{n}J{j}"


def _json_configs(work_dir, docs) -> list:
    """Write each config document as JSON and load it back as ``gmocp run`` does."""
    cfgs = []
    for name, doc in docs:
        path = os.path.join(work_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        cfgs.append(runner.load_config(path))
    return cfgs


def paper_default(work_dir, seed) -> Prepared:
    docs = [
        (f"{schedule}-{_label(policy, n, j)}", {
            "policy": policy,
            "policy_params": _policy_doc(policy, n, j),
            "stream": {"schedule": schedule, "horizon": 6000},
            "seeds": [seed],
            "output": f"{schedule}-{_label(policy, n, j)}",
        })
        for schedule in ("gradual", "sudden")
        for policy, n, j in PAPER_POLICIES
    ]
    start = perf_counter_ns()
    cfgs = _json_configs(work_dir, docs)
    parse_ns = perf_counter_ns() - start
    ops = [Op(name, cfg, seed, band=cfg.policy != "coma") for (name, _), cfg in zip(docs, cfgs)]
    return Prepared(ops, parse_ns)


def many_models(work_dir, seed) -> Prepared:
    docs = [
        (_label(policy, n, j), {
            "policy": policy,
            "policy_params": _policy_doc(policy, n, j),
            "stream": {"profiles": list(DEFAULT_PROFILES) * 32, "schedule": "gradual",
                       "horizon": 2000},
            "seeds": [seed],
            "output": _label(policy, n, j),
        })
        for policy, n, j in MANY_POLICIES
    ]
    start = perf_counter_ns()
    cfgs = _json_configs(work_dir, docs)
    parse_ns = perf_counter_ns() - start

    # one stream for every policy; each model is updated on about N/256 of
    # the steps, so SF-OGD has not settled and no coverage band is asserted
    steps, chunks = [], []
    stream = generate_stream(cfgs[0].stream, master_seed=seed)
    for _ in range(0, cfgs[0].stream.horizon, STREAM_CHUNK):
        start = perf_counter_ns()
        chunk = list(islice(stream, STREAM_CHUNK))
        chunks.append((len(chunk), perf_counter_ns() - start))
        steps.extend(chunk)
    per_step = np.median([ns / n for n, ns in chunks])
    ops = [Op(name, cfg, seed, steps=steps, band=False)
           for (name, _), cfg in zip(docs, cfgs)]
    return Prepared(ops, parse_ns, float(per_step * len(steps)))


def long_horizon(work_dir, seed) -> Prepared:
    docs = [("mocp", {
        "policy": "mocp",
        "stream": {"schedule": "gradual", "horizon": 50_000},
        "seeds": [seed],
        "output": "mocp",
    })]
    start = perf_counter_ns()
    cfgs = _json_configs(work_dir, docs)
    parse_ns = perf_counter_ns() - start
    return Prepared([Op("mocp", cfgs[0], seed)], parse_ns)


WORKLOADS = {
    "paper-default": paper_default,
    "many-models": many_models,
    "long-horizon": long_horizon,
}
