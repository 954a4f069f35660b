import os

# One BLAS thread: the suite's matrix products are small (q x q QFT passes), and
# a second OpenBLAS thread doubles CPU time without lowering wall time.  Set
# before numpy is first imported; no plugin loaded ahead of this file imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings

from quditlearn.dense import DenseState, StateError

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=0xA11CE))


def make_rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def basis_state(terms, fp) -> DenseState:
    """Normalized superposition of the given (register values, amplitude) terms."""
    terms = list(terms)
    if not terms:
        raise StateError("at least one basis term required")
    m = len(terms[0][0])
    amps = np.zeros(fp.q**m, dtype=np.complex128)
    seen: set[tuple[int, ...]] = set()
    for values, amplitude in terms:
        if len(values) != m:
            raise StateError("all basis terms must address the same registers")
        key = tuple(int(x) % fp.q for x in values)
        if key in seen:
            raise StateError(f"duplicate basis term {key}")
        seen.add(key)
        amps[np.ravel_multi_index(key, (fp.q,) * m)] = amplitude
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise StateError("amplitudes must not all be zero")
    return DenseState(fp, m, amps / norm)


def naive_poly_mul_mod(a, b, modulus, q):
    """Schoolbook product of two polynomials reduced by a monic modulus, then mod q.

    Coefficients ascend by degree.  This is the tests' own ring arithmetic,
    independent of the evaluation embedding it checks.
    """
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    # reduce by the monic modulus over the integers, then mod q
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod[-1]
        for i in range(len(modulus)):
            prod[len(prod) - len(modulus) + i] -= lead * modulus[i]
        prod.pop()
    return tuple(c % q for c in prod)
