"""Deterministic named RNG streams.

Every random draw in a run comes from a generator addressed by
(master_seed, stream name[, timestep]). This makes runs exactly
replayable and lets stream generation support random access by t:
asking for step t directly yields the same values as iterating to it.

``seed_words`` computes, for many addresses in one numpy pass, the PCG64
seed words that ``stream_rng`` would get from ``SeedSequence``;
``rngs_from_words`` turns each row of them into the same generator.
"""

from __future__ import annotations

import functools
import math
import zlib
from collections.abc import Iterator

import numpy as np

_MASK32 = 0xFFFF_FFFF
# SeedSequence's hash (O'Neill's seed_seq mixing over a pool of 4 uint32 words):
# the entropy hash multiplies its constant by _MULT_A after each word, the
# state hash by _MULT_B; _mix combines two pool words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_XSHIFT = 16


def _tag(name: str) -> int:
    # crc32 is stable across platforms and python versions
    return zlib.crc32(name.encode("utf-8"))


def stream_rng(master_seed: int, name: str, *counters: int) -> np.random.Generator:
    """Generator for the named stream, optionally addressed by counters (e.g. t)."""
    entropy = [int(master_seed), _tag(name), *[int(c) for c in counters]]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _int_words(value: int) -> list:
    """Little-endian 32-bit words of ``value``, as ``SeedSequence`` splits an int (0 is [0])."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of ``count`` hash steps and after the last, as a column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


_CONSTS_A = _hash_constants(_INIT_A, _MULT_A, 16)  # an entropy of at most 4 words
_CONSTS_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _source_constants() -> list:
    """Per source pool word, the (xor, multiplier) columns of its hash steps into each other
    pool word, in SeedSequence's order (hash steps 4 to 15); its own row is a no-op."""
    out, k = [], _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor = np.zeros((_POOL_SIZE, 1), np.uint32)
        mult = np.ones((_POOL_SIZE, 1), np.uint32)
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mult[dst] = _CONSTS_A[k], _CONSTS_A[k + 1]
                k += 1
        out.append((xor, mult))
    return out


_SOURCE_CONSTS = _source_constants()


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Hash steps i = 0, 1, ..., one per row of the result: xor with ``consts[i]``, multiply
    by ``consts[i + 1]``, xor-shift. ``values`` broadcasts against the (steps, 1) constants;
    uint32 arithmetic wraps as in C."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ (mixed >> _XSHIFT)


def _pool_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each column e of the
    (words, n) uint32 ``entropy``; returns (n, 4) uint64."""
    length, n = entropy.shape
    pool = entropy[:_POOL_SIZE]
    if length < _POOL_SIZE:  # missing words hash as zeros
        pool = np.concatenate([pool, np.zeros((_POOL_SIZE - length, n), np.uint32)])
    pool = _hashmix(pool, _CONSTS_A[:_POOL_SIZE + 1])
    # each pool word into every other; the three updates from one source are independent
    for src, (xor, mult) in enumerate(_SOURCE_CONSTS):
        hashed = (pool[src] ^ xor) * mult
        mixed = _mix(pool, hashed ^ (hashed >> _XSHIFT))
        mixed[src] = pool[src]
        pool = mixed
    if length > _POOL_SIZE:  # then each later word into every pool word
        consts = _hash_constants(_INIT_A, _MULT_A, 16 + _POOL_SIZE * (length - _POOL_SIZE))
        for src in range(_POOL_SIZE, length):
            k = _POOL_SIZE * src  # hash steps 16 + 4 * (src - 4) onward
            pool = _mix(pool, _hashmix(entropy[src], consts[k:k + _POOL_SIZE + 1]))
    state = _hashmix(np.concatenate([pool, pool]), _CONSTS_B).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def seed_words(master_seed: int, name: str, *counters) -> np.ndarray:
    """PCG64 seed words of ``stream_rng(master_seed, name, *c)`` for every ``c`` of the
    broadcast integer arrays ``counters``; shape ``(*shape, 4)``, dtype uint64.

    Equal to ``SeedSequence([master_seed, crc32(name), *c]).generate_state(4, np.uint64)``
    for counters below 2**63; a negative seed or counter raises ``ValueError`` as
    ``SeedSequence`` does.
    """
    head = np.array(_int_words(int(master_seed)) + [_tag(name)], np.uint32)[:, None]
    shape = np.broadcast_shapes(*map(np.shape, counters))
    cols = np.array([np.broadcast_to(c, shape).ravel() for c in counters], np.int64)
    cols = cols.reshape(len(counters), math.prod(shape))
    if (cols < 0).any():
        raise ValueError("expected non-negative integer")
    low, high = (cols & _MASK32).astype(np.uint32), (cols >> 32).astype(np.uint32)
    wide = high != 0
    if not wide.any():
        entropy = np.vstack([np.broadcast_to(head, (len(head), cols.shape[1])), low])
        return _pool_state(entropy).reshape(shape + (4,))
    # a counter of 2**32 or more takes two words, which moves every word after it, so
    # rows are hashed in groups that share which counters are wide
    out = np.empty((cols.shape[1], 4), np.uint64)
    for pattern in np.unique(wide, axis=1).T:
        rows = (wide == pattern[:, None]).all(axis=0)
        words = [np.broadcast_to(head, (len(head), np.count_nonzero(rows)))]
        for lo, hi, two in zip(low, high, pattern):
            words += [lo[rows], hi[rows]] if two else [lo[rows]]
        out[rows] = _pool_state(np.vstack(words))
    return out.reshape(shape + (4,))


@functools.cache
def _pcg64_from_words():
    # numpy 2 loads numpy.random on first use; importing it with gmocp would add that
    # load to every start-up, also of runs that read their stream from a file
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 precomputed seed words in place of a ``SeedSequence``."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("SeedWords holds PCG64's four uint64 seed words only")
            return self.words

    return lambda words: PCG64(SeedWords(words))


def rngs_from_words(words) -> Iterator[np.random.Generator]:
    """One generator per row of ``words`` (``seed_words`` output, shape (..., 4)), in
    row-major order, each built when it is reached: the generator whose PCG64 is seeded
    with that row, so equal to ``stream_rng`` at the row's address."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape[-1:] != (4,):
        raise ValueError(f"expected rows of 4 seed words, got shape {words.shape}")
    pcg64, generator = _pcg64_from_words(), np.random.Generator
    return (generator(pcg64(row)) for row in words.reshape(-1, 4))


def categorical(rng: np.random.Generator, pmf: np.ndarray) -> int:
    """Draw one index from a probability mass function via inverse CDF."""
    cdf = np.cumsum(pmf)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, len(pmf) - 1)
