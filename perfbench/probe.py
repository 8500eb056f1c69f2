"""Per-step timing of policy ``step`` calls, and the statistics taken from it.

A ``Probe`` replaces one policy's bound ``step`` with a wrapper that times the
call, marks the start of every block of ``SPAN`` steps and then runs the
per-step checks. Check time is measured and kept out of every block, so the
timings cover only what the program does.

The host is shared and has slow episodes lasting seconds, so no statistic
below is a plain total or a single extreme: throughput takes medians over
blocks of fixed work, and the tail compares two passes of identical work.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np

SPAN = 250  # steps per throughput block
BLOCK = 1000  # steps per percentile block; a block's p99 has 10 samples beyond it


class Probe:
    """Times every ``step(probs, true_label)`` call of one policy."""

    def __init__(self, policy, checker):
        self.policy = policy
        self.checker = checker
        self._step = policy.step
        policy.step = self.step
        self.times = array("q")  # ns per step call
        self.marks = array("q")  # entry time of the first step of each block
        self.check_ns = array("q")  # check time spent inside each block
        self.last_exit = 0
        self.last_check = 0

    def step(self, probs, true_label):
        start = perf_counter_ns()
        if len(self.times) % SPAN == 0:
            self.marks.append(start)
            self.check_ns.append(0)
        pred, record = self._step(probs, true_label)
        end = perf_counter_ns()
        self.times.append(end - start)
        self.last_exit = end
        self.checker.step(probs, true_label, pred, record)
        self.last_check = perf_counter_ns() - end
        self.check_ns[-1] += self.last_check
        return pred, record

    def detach(self) -> None:
        """Give the policy back its own ``step``.

        The wrapper and the policy refer to each other; left in place, that
        cycle keeps every policy of the run (and its calibration stores)
        alive until a full garbage collection.
        """
        del self.policy.step
        self.policy = None

    def blocks(self) -> list:
        """(steps, ns) per block: wall time between block starts, checks excluded.

        A block holds everything run between two steps as well: stream
        generation when it runs in the loop and the record kept per step.
        """
        ends = list(self.marks[1:]) + [self.last_exit]
        checks = list(self.check_ns)
        checks[-1] -= self.last_check  # the last check runs after the last exit
        n = len(self.times)
        return [
            (min(SPAN, n - b * SPAN), ends[b] - self.marks[b] - checks[b])
            for b in range(len(self.marks))
        ]

    @property
    def total_check_ns(self) -> int:
        return int(sum(self.check_ns))


class OpTiming:
    """Timing of one pass of one operation."""

    def __init__(self, policy_name: str, wall_ns: int, probe: Probe, size_sum: int):
        self.policy_name = policy_name
        self.size_sum = size_sum
        self.steps = len(probe.times)
        self.blocks = probe.blocks()
        self.times = np.frombuffer(probe.times, dtype=np.int64)
        # run set-up, final metrics and result files: the op outside its blocks
        self.overhead_ns = wall_ns - probe.total_check_ns - sum(ns for _, ns in self.blocks)


def throughput(timings_by_op: list) -> float:
    """Steps per second of one round, robust to slow episodes.

    ``timings_by_op[o]`` lists the passes of operation ``o`` (one per round).
    Each operation costs its steps times its median per-step block cost,
    plus its median overhead per pass.
    """
    total_steps = 0
    total_ns = 0.0
    for passes in timings_by_op:
        per_step = [ns / steps for t in passes for steps, ns in t.blocks]
        steps = passes[0].steps
        total_steps += steps
        total_ns += steps * float(np.median(per_step))
        total_ns += float(np.median([t.overhead_ns for t in passes]))
    return total_steps / (total_ns / 1e9)


def step_percentiles(timings_by_op: list) -> tuple:
    """(p50, p99) of step call time in µs, averaged over operations.

    An operation's p50 is the median of all its step calls. Its p99 comes
    from each step's faster time in the first two passes, which do identical
    work: that keeps the tail the work has and drops a slow moment of the
    host that hit one pass only. Of those times, each block of ``BLOCK``
    steps gives a 99th percentile, and the operation's p99 is their median,
    so a slow period that hit both passes at the same steps moves it only
    when it covers half the blocks. Operations of one workload cost
    different amounts per step, so a median across them would sit between
    two policies and jump with noise; the mean does not.
    """
    p50, p99 = [], []
    for passes in timings_by_op:
        p50.append(np.median(np.concatenate([t.times for t in passes])))
        second = passes[1] if len(passes) > 1 else passes[0]
        best = np.minimum(passes[0].times, second.times)
        p99.append(np.median([
            np.percentile(best[b:b + BLOCK], 99) for b in range(0, len(best), BLOCK)
        ]))
    return float(np.mean(p50)) / 1e3, float(np.mean(p99)) / 1e3
