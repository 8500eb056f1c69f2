"""The benchmark harness (perfbench/run.py) runs end to end on a short paper-default workload.

The harness reaches into gmocp from outside: it replaces
``gmocp.runner.make_policy`` to attach a probe, replaces each policy's
``step`` to time and check it, reads ``weights`` for its weight check, and
wraps the traced functions. A change that breaks one of these hooks shows
here as a failed or incorrect run. Everything the harness patches or writes
is put back or kept under ``tmp_path``.
"""

import argparse
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import gmocp.runner as runner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HORIZON = 300


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_paper_default_run_is_correct(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "make_policy", runner.make_policy)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import
    for name in ("checks", "probe", "tracer", "workloads"):
        load(name, monkeypatch)
    run = load("run", monkeypatch)
    workloads = sys.modules["workloads"]
    monkeypatch.setattr(run, "OUT", tmp_path)

    def prepare(work, seed):
        prepared = workloads.paper_default(work, seed)
        for op in prepared.ops:
            op.cfg = replace(op.cfg, stream=replace(op.cfg.stream, horizon=HORIZON))
            op.band = False  # 300 steps are too few for the coverage band
        return prepared

    work = tmp_path / "work"
    work.mkdir()
    args = argparse.Namespace(workload="paper-default", seed=0, seconds=0, trace=1)
    result = run.run(args, str(work), run.OpRunner(runner), prepare)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 28  # 14 operations, one untraced and one traced round
