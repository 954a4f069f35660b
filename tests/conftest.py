import os

# One BLAS thread: the suite's matrix products are small (q x q QFT passes), and
# a second OpenBLAS thread doubles CPU time without lowering wall time.  Set
# before numpy is first imported; no plugin loaded ahead of this file imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=0xA11CE))


def make_rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))
