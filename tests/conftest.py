import os

# pin BLAS to one thread before numpy loads: the timing gates must not
# depend on how many other BLAS threads share the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from coneighbor.data import from_arrays  # noqa: E402
from coneighbor.synthetic import random_stream  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_graph():
    """Six events on four nodes with edge features, already sorted."""
    src = [0, 1, 2, 0, 3, 1]
    dst = [1, 2, 3, 2, 0, 3]
    t = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    feats = np.arange(12, dtype=float).reshape(6, 2)
    return from_arrays(src, dst, t, edge_feats=feats)


@pytest.fixture(scope="session")
def small_stream():
    """A reusable random stream big enough to split and train on."""
    return random_stream(30, 400, seed=7, edge_dim=2, node_dim=3)
