"""Output checks, computed from the program's outputs without its own code.

Each function raises ``CheckFailed`` when the output it is given is wrong.
``OpChecker`` applies them to one operation (one policy configuration run on
one seed): per step as the policy returns, and once when the run has ended.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

# per-seed coverage band of the acceptance battery (tests/test_acceptance.py)
COVERAGE_BAND = (88.0, 92.0)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_top_labels(p, labels) -> None:
    """(a) ``labels`` are the ``len(labels)`` most probable labels of ``p``.

    The RAPS score never decreases down the probability ranking, so a valid
    set holds no label less probable than one it leaves out; labels of equal
    probability may swap.
    """
    n = len(p)
    idx = sorted(labels)
    if idx and not (0 <= idx[0] and idx[-1] < n):
        raise CheckFailed(f"set {idx} holds a label outside [0, {n})")
    if not idx or len(idx) == n:
        return
    inside = p[idx]
    least = inside.min()
    if np.count_nonzero(p > least) != np.count_nonzero(inside > least):
        raise CheckFailed(f"set {idx} skips a label more probable than {least!r}")


def check_set_agrees(labels, set_size: int, record_size: int, err: int, true_label: int) -> None:
    """(b) set size, miscoverage flag and returned labels agree."""
    if set_size != len(labels) or record_size != len(labels):
        raise CheckFailed(
            f"set size {set_size}/{record_size} but {len(labels)} labels returned"
        )
    if err != int(true_label not in labels):
        raise CheckFailed(f"err={err} but true label {true_label} in set is {true_label in labels}")


def check_selection(chosen: int, subset, max_links: int | None) -> None:
    """(c) the chosen model is in the recorded subset; a graph subset has <= N models."""
    if chosen not in subset:
        raise CheckFailed(f"chosen model {chosen} not in subset {subset}")
    if max_links is not None and len(subset) > max_links:
        raise CheckFailed(f"subset {subset} has more than N={max_links} models")


def check_weights(weights) -> None:
    """(d) every model weight is finite and positive."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or not np.all(np.isfinite(w)) or not np.all(w > 0):
        bad = [float(x) for x in w if not (math.isfinite(x) and x > 0)]
        raise CheckFailed(f"weights not finite and positive: {bad[:5]}")


def check_reported(coverage: float, avg_width: float, n_steps: int, n_err: int, size_sum: int) -> None:
    """(e) reported coverage and average set size equal the recount from step records."""
    if n_steps < 1:
        raise CheckFailed("no steps recorded")
    want_cov = 100.0 * (n_steps - n_err) / n_steps
    want_width = size_sum / n_steps
    if not math.isclose(coverage, want_cov, rel_tol=1e-12, abs_tol=1e-12):
        raise CheckFailed(f"reported coverage {coverage!r}, step records give {want_cov!r}")
    if not math.isclose(avg_width, want_width, rel_tol=1e-12, abs_tol=1e-12):
        raise CheckFailed(f"reported avg width {avg_width!r}, step records give {want_width!r}")


def check_identical(first: dict, second: dict) -> None:
    """(f) two passes of one run wrote byte-identical result files."""
    if first.keys() != second.keys():
        raise CheckFailed(f"result files differ: {sorted(first)} vs {sorted(second)}")
    for name in first:
        if first[name] != second[name]:
            raise CheckFailed(f"result file {name} differs between two passes")


def check_band(coverage: float, band=COVERAGE_BAND) -> None:
    """(g) coverage lies in the acceptance battery's per-seed band."""
    lo, hi = band
    if not lo <= coverage <= hi:
        raise CheckFailed(f"coverage {coverage:.3f} outside [{lo}, {hi}]")


def file_digests(paths) -> dict:
    """sha256 of each file, keyed by file name."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[str(path).rsplit("/", 1)[-1]] = hashlib.sha256(fh.read()).hexdigest()
    return out


def read_result_row(csv_path) -> dict:
    """The single data row of a results CSV, parsed with the csv module."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise CheckFailed(f"{csv_path}: {len(rows)} result rows, expected 1")
    return rows[0]


class OpChecker:
    """Checks of one operation: per step as the policy returns, then once at the end.

    ``chosen``: the policy predicts from one chosen model, whose most
    probable labels the set must be (not COMA, whose set is a weighted vote).
    ``max_links``: N of a graph policy, else None. ``band``: assert the
    coverage band.
    """

    def __init__(self, chosen: bool, max_links: int | None, band: bool):
        self.chosen = chosen
        self.max_links = max_links
        self.band = band
        self.n_steps = 0
        self.n_err = 0
        self.size_sum = 0
        self.failures = 0  # steps that failed a check; the run goes on to its end
        self.first_failure = ""

    def step(self, probs, true_label, pred, record) -> None:
        labels = pred.labels
        try:
            check_set_agrees(labels, pred.size, record.set_size, record.err, true_label)
            if self.chosen:
                check_selection(record.chosen_model, record.subset, self.max_links)
                check_top_labels(np.asarray(probs[record.chosen_model]), labels)
        except CheckFailed as exc:
            self.failures += 1
            self.first_failure = self.first_failure or f"t={record.t}: {exc}"
        self.n_steps += 1
        self.n_err += record.err
        self.size_sum += record.set_size

    def finish(self, policy, result_csv, result_files, reference_digests) -> dict:
        """Run-level checks; returns the digests of the result files."""
        if self.failures:
            raise CheckFailed(f"{self.failures} steps failed, first {self.first_failure}")
        if hasattr(policy, "weights"):
            check_weights(policy.weights)
        row = read_result_row(result_csv)
        coverage = float(row["coverage"])
        check_reported(coverage, float(row["avg_width"]), self.n_steps, self.n_err, self.size_sum)
        if self.band:
            check_band(coverage)
        digests = file_digests(result_files)
        if reference_digests is not None:
            check_identical(reference_digests, digests)
        return digests
