"""Seed words hashed in numpy against numpy's own ``SeedSequence``."""

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmocp.rng import rngs_from_words, seed_words, stream_rng

# small counters, the 32-bit boundary and counters that take two words
COUNTER = st.one_of(st.integers(0, 50), st.sampled_from([2**32 - 1, 2**32]),
                    st.integers(0, 2**40))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(master_seed=st.integers(0, 2**70), name=st.text(max_size=12),
       columns=st.integers(1, 4).flatmap(
           lambda n: st.lists(st.lists(COUNTER, min_size=n, max_size=n), max_size=4)))
@example(master_seed=0, name="stream-model", columns=[[1, 2], [0, 1]])
@example(master_seed=2**32, name="stream-label", columns=[[7]])
@example(master_seed=2**70, name="", columns=[])
def test_seed_words_equal_seed_sequence(master_seed, name, columns):
    """``columns`` holds one list per counter, each with one value per address."""
    got = seed_words(master_seed, name, *[np.array(col) for col in columns])
    addresses = list(zip(*columns)) if columns else [()]
    assert got.dtype == np.uint64 and got.shape == ((len(columns[0]), 4) if columns else (4,))
    for i, counters in enumerate(addresses):
        entropy = [master_seed, zlib.crc32(name.encode("utf-8")), *counters]
        want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert np.array_equal(got[i] if columns else got, want), (entropy, i)


@pytest.mark.parametrize("master_seed, counters", [(-1, (3,)), (0, (np.array([1, -2]),))])
def test_seed_words_reject_negative_values_as_seed_sequence_does(master_seed, counters):
    with pytest.raises(ValueError, match="non-negative"):
        stream_rng(master_seed, "x", *[np.min(c) for c in counters])
    with pytest.raises(ValueError, match="non-negative"):
        seed_words(master_seed, "x", *counters)


@pytest.mark.parametrize("master_seed, counters", [(0, (5, 3)), (2**40, (2**32,)), (9, ())])
def test_rngs_from_words_are_the_stream_rng_generators(master_seed, counters):
    (ours,) = rngs_from_words(seed_words(master_seed, "name", *counters))
    theirs = stream_rng(master_seed, "name", *counters)
    assert np.array_equal(ours.standard_normal(7), theirs.standard_normal(7))
    assert ours.integers(13) == theirs.integers(13)
    with pytest.raises(ValueError, match="rows of 4 seed words"):
        rngs_from_words(np.zeros((2, 3), np.uint64))


def test_rngs_from_words_follow_row_major_order():
    words = seed_words(5, "name", np.arange(3)[:, None], np.arange(2))
    draws = [rng.random() for rng in rngs_from_words(words)]
    assert draws == [stream_rng(5, "name", t, m).random() for t in range(3) for m in range(2)]


def test_importing_gmocp_does_not_load_numpy_random():
    """numpy loads numpy.random lazily; loading it at import would add to every start-up."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys, gmocp; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
