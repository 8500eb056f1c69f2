"""gmocp benchmark: one closed-loop, single-threaded process per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 8 --trace 0

The run sets up the workload, warms up untimed, then repeats whole rounds
of its operations until ``--seconds`` have been measured, and at least two
rounds; the result files of every later round must be byte-identical to
the first. Every output is checked (see checks.py). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. A traced run makes one untraced
round, the base of the tracing overhead and of the per-policy step times,
then one traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

# one thread of work: hold numpy's thread pools to one thread before it loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy must see the thread settings above)
import probe  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
IMPORT_REPEATS = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gmocp; print(time.perf_counter() - t)"
)
POLICY_NAMES = ("gmocp", "egmocp", "mocp", "coma", "aci")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median time to import gmocp (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


class OpRunner:
    """Runs operations, attaching a probe to each policy the runner makes."""

    def __init__(self, runner_module):
        self._make_policy = runner_module.make_policy
        runner_module.make_policy = self.make_policy
        self.current = None
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0

    def make_policy(self, name, cfg, seed):
        policy = self._make_policy(name, cfg, seed)
        if self.current is not None:
            if self.current["probe"] is not None:
                raise RuntimeError("operation made more than one policy")
            self.current["probe"] = probe.Probe(policy, self.current["checker"])
        return policy

    def run_op(self, op, reference=None):
        """Run one operation and check it.

        Returns (OpTiming, result digests); the digests are None when a
        check failed, and the whole is None when the operation raised.
        """
        checker = checks.OpChecker(chosen=op.policy != "coma", max_links=op.max_links, band=op.band)
        self.current = {"probe": None, "checker": checker}
        self.attempted += 1
        try:
            start = perf_counter_ns()
            op.run()
            wall = perf_counter_ns() - start
        except Exception:  # an operation that raises counts as failed; the run goes on
            self.failed += 1
            print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            probed, self.current = self.current["probe"], None
        timing = probe.OpTiming(op.policy, wall, probed, checker.size_sum)
        try:
            digests = checker.finish(probed.policy, op.result_csv, op.result_files, reference)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.check_failures += 1
            print(f"CHECK FAILED {op.label}: {exc}", file=sys.stderr)
            return timing, None
        finally:
            probed.detach()
        if reference is None:
            print(f"{op.label}: coverage {100 * (1 - checker.n_err / checker.n_steps):.3f}%"
                  f" avg set size {checker.size_sum / checker.n_steps:.4f}", file=sys.stderr)
        return timing, digests


def run_round(ops_runner, ops, reference, tracer=None):
    """Every operation once.

    ``reference`` maps op index to the result digests of the first round,
    which every later pass must reproduce byte for byte. Returns the
    timings and digests by op index and the (start, end) of the round.
    """
    timings, digests = {}, {}
    if tracer is not None:
        tracer.install()
    start = perf_counter_ns()
    for i, op in enumerate(ops):
        result = ops_runner.run_op(op, reference.get(i))
        if result is not None:
            timings[i] = result[0]
            if result[1] is not None:
                digests[i] = result[1]
    end = perf_counter_ns()
    if tracer is not None:
        tracer.uninstall()
    return timings, digests, (start, end)


def untraced_metrics(timings_by_op, setup_s):
    p50, p99 = probe.step_percentiles(timings_by_op)
    return {
        "steps_per_s": (probe.throughput(timings_by_op), "steps/s"),
        "step_us_p50": (p50, "us"),
        "step_us_p99": (p99, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(stats, n_ops, base_timings, traced_timings):
    out = {}
    for name in tracing.TIMED_LAYERS:
        out[f"{name}.us"] = (stats.mean_self_us(name), "us")
        out[f"{name}.calls"] = (stats.count(name), "count")
    gen_calls = stats.count("streams.generate_step")
    out["rng.stream_rng.per_step"] = (stats.rng_in_stream / gen_calls if gen_calls else 0.0, "count")
    subsets = stats.count("graph.effective_subset")
    out["graph.subset_size"] = (
        stats.noted["graph.effective_subset"] / subsets if subsets else 0.0, "models")
    inserts = stats.count("scoring.insert")
    out["scoring.stored_scores"] = (
        stats.noted["scoring.insert"] / inserts if inserts else 0.0, "scores")
    out["policies.step.self_us"] = (stats.mean_self_us("policies.step"), "us")
    out["policies.step.calls"] = (stats.count("policies.step"), "count")
    for name in POLICY_NAMES:
        mine = [[t] for t in base_timings if t.policy_name == name]
        out[f"policies.step_us.{name}"] = (probe.step_percentiles(mine)[0] if mine else 0.0, "us")
    runner_ns = sum(stats.self_total_ns(n) for n in stats.names if n.startswith("runner."))
    out["runner.self_us"] = (runner_ns / n_ops / 1e3, "us")
    base = probe.throughput([[t] for t in base_timings])
    traced = probe.throughput([[t] for t in traced_timings])
    out["trace.overhead_pct"] = (100.0 * (base - traced) / base, "%")
    out["trace.uncovered_pct"] = (100.0 * stats.uncovered_ns / stats.region_ns, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gmocp").is_dir():
        print(f"no gmocp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gmocp.runner as runner
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, str(work), OpRunner(runner), workloads.WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, work, ops_runner, prepare) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up stream generation is a layer of many-models
    prepared = prepare(work, args.seed)
    if tracer is not None:
        tracer.uninstall()
    ops = prepared.ops
    for op in ops:
        try:
            op.warm_up()
        except Exception:  # the operation fails again, and is counted, in the rounds
            print(f"warm-up of {op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)

    # untraced: at least two rounds, so that every operation runs twice on
    # identical work; traced: one untraced round, then one traced round
    min_rounds, seconds = (1, 0) if args.trace else (2, args.seconds)
    timings_by_op = [[] for _ in ops]
    reference = None
    rounds = measured = 0
    while rounds < min_rounds or measured < seconds * 1e9:
        timings, digests, (start, end) = run_round(ops_runner, ops, reference or {})
        reference = digests if reference is None else reference
        rounds += 1
        measured += end - start
        for i, t in timings.items():
            timings_by_op[i].append(t)
    timings_by_op = [passes for passes in timings_by_op if passes]
    if not timings_by_op:
        raise SystemExit("every operation failed; nothing to measure")
    first = [passes[0] for passes in timings_by_op]

    if tracer is not None:
        traced, _, region = run_round(ops_runner, ops, reference, tracer)
        metrics = layer_metrics(tracing.SpanStats(tracer, region), len(ops), first,
                                list(traced.values()))
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        setup_s = import_seconds() + (prepared.parse_ns + prepared.stream_ns) / 1e9
        metrics = untraced_metrics(timings_by_op, setup_s)
        # every round reproduces the first byte for byte, so one round gives it
        metrics["avg_set_size"] = (
            sum(t.size_sum for t in first) / sum(t.steps for t in first), "labels")
    return {
        "correct": ops_runner.check_failures == 0,
        "attempted": ops_runner.attempted,
        "failed": ops_runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
