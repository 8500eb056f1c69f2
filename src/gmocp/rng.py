"""Deterministic named RNG streams.

Every random draw in a run comes from a generator addressed by
(master_seed, stream name[, timestep]). This makes runs exactly
replayable and lets stream generation support random access by t:
asking for step t directly yields the same values as iterating to it.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag(name: str) -> int:
    # crc32 is stable across platforms and python versions
    return zlib.crc32(name.encode("utf-8"))


def stream_rng(master_seed: int, name: str, *counters: int) -> np.random.Generator:
    """Generator for the named stream, optionally addressed by counters (e.g. t)."""
    entropy = [int(master_seed), _tag(name), *[int(c) for c in counters]]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def categorical(rng: np.random.Generator, pmf: np.ndarray) -> int:
    """Draw one index from a probability mass function via inverse CDF."""
    cdf = np.cumsum(pmf)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, len(pmf) - 1)
