"""Named generators: their seed checks and numpy.random's lazy load."""

import os
import subprocess
import sys

import pytest

from gmocp.rng import stream_rng


@pytest.mark.parametrize("master_seed, counters", [(-1, (3,)), (0, (1, -2))])
def test_stream_rng_rejects_negative_values(master_seed, counters):
    with pytest.raises(ValueError, match="non-negative"):
        stream_rng(master_seed, "x", *counters)


def test_importing_gmocp_does_not_load_numpy_random():
    """numpy loads numpy.random lazily; loading it at import would add to every start-up."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys, gmocp; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
