"""Evaluation embedding of a cyclotomic quotient ring and the global-noise learner.

Elements of R_q = Z_q[x] / Phi_m(x) (m-th cyclotomic polynomial, degree
n = phi(m), with q prime and m | q-1) are identified with Z_q^n by evaluating
at the n primitive m-th roots of unity mod q.  Under this map multiplication
is component-wise, which is exactly what lets a *global* error turn into a
measurable phase after the QFT: the learner QFTs all 2n registers, measures,
and reads every embedded secret coordinate from the outcome pair (x, y) with
x = -y (.) phi(s), provided every y_i is invertible.

There is one shared, read-only embedding per (q, m), compared by identity.  phi
is a bijection of R_q onto Z_q^n, so a sample state sums over y = phi(a) in Z_q^n.

A sample carries one global error or none; per-element ring noise is
rejected by ``experiments.build_trial``: the embedding of an independently
drawn small-coefficient error is unbounded in Z_q^n, and no recovery step
here applies to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .dense import DenseState, checked_size
from .field import FieldParams, NoRootError, ParameterError, _prime_divisors, mod_inverse, primitive_mth_root
from .learners import BOT, BvOutcome
from .samples import _residues, uniform_vector


def _matrix_inverse_mod(mat: np.ndarray, q: int) -> np.ndarray:
    """Gauss-Jordan inverse mod q of a Vandermonde matrix at distinct points p_i:
    each pivot is a ratio of leading minors prod(p_j - p_i) != 0, so no row swaps."""
    n = mat.shape[0]
    aug = np.concatenate([mat % q, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        aug[col] = aug[col] * mod_inverse(int(aug[col, col]), q) % q
        factors = np.where(np.arange(n) == col, 0, aug[:, col])
        aug = (aug - np.outer(factors, aug[col])) % q
    return aug[:, n:]


def ring_dimension(fp: FieldParams, m: int) -> int:
    """n = phi(m), the ring dimension at conductor m, checked as ``RingEmbedding.build`` checks
    it but from m alone, so a caller can size a ring before any embedding is built."""
    q = fp.q
    if m < 1 or (q - 1) % m != 0:
        raise NoRootError(f"{m} does not divide {q - 1}, no order-{m} element exists")
    n = m
    for p in _prime_divisors(m):
        n = n // p * (p - 1)
    if n * (q - 1) ** 2 > 2**63 - 1:  # bounds the int64 products of _matrix_inverse_mod
        raise ParameterError(f"modulus {q} is too large for int64 ring arithmetic at n = {n}")
    return n


@dataclass(frozen=True, eq=False)
class RingEmbedding:
    """Evaluation embedding of Z_q[x]/Phi_m(x) into Z_q^n, n = phi(m): one shared,
    read-only object per (q, m) (``build`` is memoized), compared by identity.

    Both matrices are tuples of rows of Python ints, so ``embed`` and
    ``unembed`` are Python dot products that cannot wrap.
    """

    fp: FieldParams
    m: int
    n: int
    eval_matrix: tuple[tuple[int, ...], ...]
    inv_matrix: tuple[tuple[int, ...], ...]

    @classmethod
    @lru_cache(maxsize=8)
    def build(cls, fp: FieldParams, m: int) -> "RingEmbedding":
        q = fp.q
        n = ring_dimension(fp, m)  # raises NoRootError when m does not divide q-1
        root = primitive_mth_root(m, q)
        points = [pow(root, x, q) for x in range(1, m + 1) if math.gcd(x, m) == 1]
        evals = np.array([[pow(pt, j, q) for j in range(n)] for pt in points], dtype=np.int64)
        eval_matrix, inv_matrix = (tuple(map(tuple, a.tolist())) for a in (evals, _matrix_inverse_mod(evals, q)))
        return cls(fp=fp, m=m, n=n, eval_matrix=eval_matrix, inv_matrix=inv_matrix)

    def _apply(self, matrix: tuple[tuple[int, ...], ...], values: tuple[int, ...], size_error: str) -> tuple[int, ...]:
        if len(values) != self.n:
            raise ParameterError(size_error.format(self.n))
        q, values = self.fp.q, list(map(int, values))  # Python ints: a numpy int could wrap
        return tuple([sum(map(operator.mul, row, values)) % q for row in matrix])

    def embed(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """Evaluate the polynomial at the primitive m-th roots of unity."""
        return self._apply(self.eval_matrix, coeffs, "ring elements have {} coefficients")

    def unembed(self, values: tuple[int, ...]) -> tuple[int, ...]:
        return self._apply(self.inv_matrix, values, "embedded vectors have {} coordinates")


@lru_cache(maxsize=1)  # a run's samples share its embedding and secret
def _secret_tables(emb: RingEmbedding, s: tuple[int, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(starts, products), read-only: starts[y] = y q^n is the flat index of |y>|0>, and
    products[i][y_i] = y_i phi(s)_i mod q is coordinate i of y (.) phi(s)."""
    q, n = emb.fp.q, emb.n
    starts = np.arange(q**n, dtype=np.int64) * q**n
    products = tuple(np.arange(q, dtype=np.int64) * si % q for si in emb.embed(s))
    for table in (starts, *products):
        table.flags.writeable = False
    return starts, products


def ring_sample_state(
    emb: RingEmbedding, s: tuple[int, ...], e: tuple[int, ...]
) -> DenseState:
    """(1/sqrt(q^n)) sum_{a in R_q} |phi(a)>|phi(a s + e)> on 2n registers.

    e is the single global error shared by every element of the superposition.  This is
    sum_y |y>|y (.) phi(s) + phi(e)> over y in Z_q^n; the second block's index is an outer sum.
    """
    checked_size(emb.fp, 2 * emb.n)  # the cap, before any index array is built
    q = emb.fp.q
    residues = _residues(q)
    starts, products = _secret_tables(emb, s)
    # coordinate i of y (.) phi(s) + phi(e), each table + phi(e)_i in [0, 2q)
    columns = [residues[table + ei] for table, ei in zip(products, emb.embed(e))]
    second = columns[0]
    for column in columns[1:]:
        second = (second[:, None] * q + column).ravel()
    second += starts  # a fresh array: the flat index of |y>|y (.) phi(s) + phi(e)>
    return DenseState.uniform(emb.fp, 2 * emb.n, second)


def ring_sample_stream(
    emb: RingEmbedding, s: tuple[int, ...], rng: np.random.Generator, global_error: bool = True
) -> Callable[[], DenseState]:
    """Fresh ring samples whose global error is redrawn uniformly over R_q per call, or is 0."""
    q = emb.fp.q
    s = tuple(x % q for x in s)

    def source() -> DenseState:
        e = uniform_vector(q, emb.n, rng) if global_error else (0,) * emb.n
        return ring_sample_state(emb, s, e)

    return source


def ring_lwe_global_learn(
    emb: RingEmbedding,
    source: Callable[[], DenseState],
    rng: np.random.Generator,
) -> BvOutcome:
    """QFT all 2n registers, measure; recover phi(s) coordinate-wise when possible.

    The outcome is (x, y) with x = -y (.) phi(s) and y uniform; the global
    error only contributes a phase, so it never biases the outcome.  Each
    coordinate with y_i = 0 carries no information, so the learner abstains
    unless every y_i is invertible.  Per-sample success probability is
    ((q-1)/q)^n with or without the global error.
    """
    q = emb.fp.q
    state = source()
    if state.num_registers != 2 * emb.n:
        raise ParameterError("ring samples carry 2n registers")
    outcome = state.measure_qft_all(rng)
    x, y = outcome[: emb.n], outcome[emb.n :]
    if any(yi == 0 for yi in y):
        return BOT
    phi_s = tuple((-xi * mod_inverse(yi, q)) % q for xi, yi in zip(x, y))
    return BvOutcome(emb.unembed(phi_s))
