"""Span recording from outside the program, and the per-layer figures taken from it.

``Tracer.install`` replaces public functions of ``gmocp`` by wrappers under
the names the calling module uses (``gmocp.policies.generate_graph``,
``CalibrationStore.insert``, ...). Each call records one span: name, parent,
start and end. Spans are kept in typed arrays in memory and written out by
``Tracer.save`` when the benchmark ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

CHECK_SPAN = "bench.check"

# (module, attribute, span name): functions looked up at call time in the
# named module, so wrapping them there catches every call from that module
FUNCTIONS = [
    ("gmocp.streams", "stream_rng", "rng.stream_rng"),
    ("gmocp.policies", "stream_rng", "rng.stream_rng"),
    ("gmocp.streams", "generate_step", "streams.generate_step"),
    ("gmocp.policies", "generate_graph", "graph.generate_graph"),
    ("gmocp.policies", "select_node", "graph.select_node"),
    ("gmocp.policies", "effective_subset", "graph.effective_subset"),
    ("gmocp.policies", "all_model_scores", "scoring.all_model_scores"),
    ("gmocp.policies", "build_prediction_set", "scoring.build_prediction_set"),
    ("gmocp.policies", "prediction_set_size", "scoring.prediction_set_size"),
    ("gmocp.policies", "all_label_scores", "scoring.all_label_scores"),
    ("gmocp.scoring", "all_label_scores", "scoring.all_label_scores"),
    ("gmocp.policies", "optimal_alpha_bar", "scoring.optimal_alpha_bar"),
    ("gmocp.policies", "quantile_threshold", "scoring.quantile_threshold"),
    ("gmocp.policies", "sfogd_update", "adapt.sfogd_update"),
    ("gmocp.policies", "sfogd_update_err", "adapt.sfogd_update_err"),
    ("gmocp.policies", "pinball_loss", "adapt.pinball_loss"),
    ("gmocp.runner", "compute_metrics", "metrics.compute_metrics"),
    ("gmocp.runner", "run_seed", "runner.run_seed"),
    ("gmocp.runner", "run_experiment", "runner.run_experiment"),
    ("gmocp.runner", "write_summary", "runner.write_summary"),
]

# (module, class, method, span name)
METHODS = [
    ("gmocp.graph", "FeedbackGraph", "inclusion_of", "graph.inclusion_of"),
    ("gmocp.scoring", "CalibrationStore", "insert", "scoring.insert"),
    ("gmocp.policies", "GMOCPPolicy", "step", "policies.step"),
    ("gmocp.policies", "MOCPPolicy", "step", "policies.step"),
    ("gmocp.policies", "COMAPolicy", "step", "policies.step"),
    ("gmocp.policies", "ACIPolicy", "step", "policies.step"),
    ("checks", "OpChecker", "step", CHECK_SPAN),
    ("checks", "OpChecker", "finish", CHECK_SPAN),
]

# layers reported as "<name>.us" (mean self time per call) and "<name>.calls"
TIMED_LAYERS = (
    "rng.stream_rng", "streams.generate_step",
    "graph.generate_graph", "graph.select_node", "graph.effective_subset", "graph.inclusion_of",
    "scoring.all_model_scores", "scoring.build_prediction_set", "scoring.prediction_set_size",
    "scoring.all_label_scores", "scoring.insert", "scoring.optimal_alpha_bar",
    "scoring.quantile_threshold",
    "adapt.sfogd_update", "adapt.sfogd_update_err", "adapt.pinball_loss",
    "policies.weights", "metrics.compute_metrics",
)


def _store_size(args, result) -> int:
    return len(args[0].scores) - 1  # scores held before this insert


def _subset_size(args, result) -> int:
    return len(result)


# span name -> value summed per call, for the per-call means of counts
NOTES = {"scoring.insert": _store_size, "graph.effective_subset": _subset_size}


class Tracer:
    """Records spans of wrapped calls; one instance per benchmark run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.noted = {}
        self._saved = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        note = NOTES.get(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        noted = self.noted
        noted.setdefault(name, 0)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if note is not None:
                noted[name] += note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function; ``uninstall`` restores the originals."""
        for module, attr, name in FUNCTIONS:
            self._replace(sys.modules[module], attr, self.wrap(name, getattr(sys.modules[module], attr)))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._replace(cls, attr, self.wrap(name, cls.__dict__[attr]))
        base = sys.modules["gmocp.policies"]._BasePolicy
        weights = base.__dict__["weights"]
        self._replace(base, "weights", property(self.wrap("policies.weights", weights.fget)))

    def _replace(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-name self times and counts over a tracer's spans.

    ``region`` is the (start, end) of the traced timed region. Spans under a
    check span are the benchmark's own work and are left out of every layer;
    their self time still counts towards the region, so the self times of
    all spans in the region plus the uncovered remainder add up to it.
    """

    def __init__(self, tracer: Tracer, region):
        if tracer.stack:
            raise RuntimeError("spans still open")
        a = tracer.arrays()
        name, parent, start, end = a["name"], a["parent"], a["start"], a["end"]
        dur = end - start
        has_parent = parent >= 0
        up = np.where(has_parent, parent, np.arange(len(dur)))
        if np.any(start < start[up]) or np.any(end > end[up]):
            raise RuntimeError("a span is not inside its parent")
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child.astype(np.int64)

        # walk every span up to its root, noting whether it passes a check span
        check_id = tracer._ids[CHECK_SPAN]
        root = np.arange(len(dur))
        under_check = name == check_id
        while np.any(has_parent[root]):
            root = up[root]
            under_check |= name[root] == check_id

        lo, hi = region
        in_region = (start[root] >= lo) & (end[root] <= hi)
        top = in_region & ~has_parent
        order = np.argsort(start[top])
        s, e = start[top][order], end[top][order]
        if np.any(s[1:] < e[:-1]):
            raise RuntimeError("top-level spans overlap")
        self.region_ns = int(hi - lo)
        self.uncovered_ns = self.region_ns - int(np.sum(e - s))
        region_self_ns = int(np.sum(self_ns[in_region]))
        if abs(region_self_ns + self.uncovered_ns - self.region_ns) > 1000:
            raise RuntimeError(
                f"span self times {region_self_ns} + uncovered {self.uncovered_ns} "
                f"!= traced region {self.region_ns} ns"
            )

        keep = ~under_check
        n_names = len(tracer.names)
        self._ids = dict(tracer._ids)
        self.calls = np.bincount(name[keep], minlength=n_names)
        self.self_ns = np.bincount(name[keep], weights=self_ns[keep], minlength=n_names)
        self.noted = dict(tracer.noted)
        in_stream = has_parent & (name[up] == self._ids["streams.generate_step"])
        self.rng_in_stream = int(np.count_nonzero(in_stream & (name == self._ids["rng.stream_rng"])))

    @property
    def names(self) -> list:
        return list(self._ids)

    def count(self, name: str) -> int:
        return int(self.calls[self._ids[name]])

    def self_total_ns(self, name: str) -> float:
        return float(self.self_ns[self._ids[name]])

    def mean_self_us(self, name: str) -> float:
        n = self.count(name)
        return self.self_total_ns(name) / n / 1e3 if n else 0.0
