"""The benchmark's tracer (perfbench/tracer.py) must find every name it wraps.

The tracer replaces functions and methods of gmocp by name from outside the
package; a renamed or inlined one makes every traced benchmark run fail at
install, or leaves its layer silently unmeasured. This checks that install
wraps each name, that a few policy steps call the wrapped module globals,
and that uninstall restores every original.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import gmocp.policies as policies
import gmocp.runner  # noqa: F401  (the tracer wraps names in gmocp.runner)
from gmocp.graph import GraphParams
from gmocp.scoring import ScoreParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked(tracing):
    """(owner, attribute) of every name the tracer replaces."""
    names = [(sys.modules[mod], attr) for mod, attr, _ in tracing.FUNCTIONS]
    names += [(getattr(sys.modules[mod], cls), attr) for mod, cls, attr, _ in tracing.METHODS]
    return names + [(policies._BasePolicy, "weights")]


def run_policies():
    score = ScoreParams(xi=0.1, k_reg=1, n_labels=6)
    graph = GraphParams.uniform(1, 3, 0.5)
    made = [policies.make_policy("egmocp", policies.PolicyConfig(3, score, graph, beta=0.05), 0),
            policies.make_policy("mocp", policies.PolicyConfig(3, score), 0),
            policies.make_policy("coma", policies.PolicyConfig(3, score), 0),
            policies.make_policy("aci", policies.PolicyConfig(1, score), 0)]
    rng = np.random.default_rng(0)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(6), size=3)
        label = int(rng.integers(6))
        for policy in made:
            policy.step(probs, label)


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.setitem(sys.modules, "checks", load("checks"))
    tracing = load("tracer")
    names = hooked(tracing)
    before = [vars(owner)[attr] for owner, attr in names]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [vars(owner)[attr] for owner, attr in names]
        run_policies()
    finally:
        tracer.uninstall()

    assert all(a is not b for a, b in zip(before, during))
    assert all(vars(owner)[attr] is value for (owner, attr), value in zip(names, before))
    calls = np.bincount(np.frombuffer(tracer.name, dtype=np.uint16), minlength=len(tracer.names))
    called = {name for name, n in zip(tracer.names, calls) if n}
    expected = {span for mod, _, span in tracing.FUNCTIONS if mod == "gmocp.policies"}
    expected |= {"policies.step", "policies.weights", "graph.inclusion_of", "scoring.insert"}
    assert expected <= called, sorted(expected - called)
