"""Evaluation embedding of a cyclotomic quotient ring and the global-noise learner.

Elements of R_q = Z_q[x] / Phi_m(x) (m-th cyclotomic polynomial, degree
n = phi(m), with q prime and m | q-1) are identified with Z_q^n by evaluating
at the n primitive m-th roots of unity mod q.  Under this map multiplication
is component-wise, which is exactly what lets a *global* error turn into a
measurable phase after the QFT: the learner QFTs all 2n registers, measures,
and reads every embedded secret coordinate from the outcome pair (x, y) with
x = -y (.) phi(s), provided every y_i is invertible.

Per-element ring noise is rejected: the embedding of an independently drawn
small-coefficient error is unbounded in Z_q^n, and no recovery step here
applies to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .dense import DenseState
from .field import FieldParams, ParameterError, mod_inverse, primitive_mth_root
from .learners import BOT, BvOutcome
from .samples import _flat_indices, _vector_table, uniform_vector


def euler_phi(m: int) -> int:
    out = m
    d = 2
    mm = m
    while d * d <= mm:
        if mm % d == 0:
            out -= out // d
            while mm % d == 0:
                mm //= d
        d += 1
    if mm > 1:
        out -= out // mm
    return out


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    # Long division of integer polynomials with a monic divisor; remainder must vanish.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coeff = num[shift + len(den) - 1]
        out[shift] = coeff
        for i, d in enumerate(den):
            num[shift + i] -= coeff * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree."""
    if m < 1:
        raise ParameterError("conductor must be >= 1")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def _matrix_inverse_mod(mat: np.ndarray, q: int) -> np.ndarray:
    n = mat.shape[0]
    aug = np.concatenate([mat % q, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r, col] % q), None)
        if pivot is None:
            raise ParameterError("embedding matrix is singular mod q")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] * mod_inverse(int(aug[col, col]), q) % q
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[col]) % q
    return aug[:, n:]


@dataclass(frozen=True)
class RingEmbedding:
    """Evaluation embedding of Z_q[x]/Phi_m(x) into Z_q^n, n = phi(m)."""

    fp: FieldParams
    m: int
    n: int
    omega_m: int
    exponents: tuple[int, ...]
    modulus: tuple[int, ...]
    eval_matrix: np.ndarray
    inv_matrix: np.ndarray

    @classmethod
    def build(cls, fp: FieldParams, m: int) -> "RingEmbedding":
        q = fp.q
        root = primitive_mth_root(m, q)  # raises NoRootError when m does not divide q-1
        exponents = tuple(x for x in range(1, m + 1) if math.gcd(x, m) == 1)
        n = len(exponents)
        points = [pow(root, x, q) for x in exponents]
        eval_matrix = np.array(
            [[pow(pt, j, q) for j in range(n)] for pt in points], dtype=np.int64
        )
        return cls(
            fp=fp,
            m=m,
            n=n,
            omega_m=root,
            exponents=exponents,
            modulus=cyclotomic_poly(m),
            eval_matrix=eval_matrix,
            inv_matrix=_matrix_inverse_mod(eval_matrix, q),
        )

    def embed(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """Evaluate the polynomial at the primitive m-th roots of unity."""
        vec = np.asarray([c % self.fp.q for c in coeffs], dtype=np.int64)
        if vec.size != self.n:
            raise ParameterError(f"ring elements have {self.n} coefficients")
        return tuple(int(x) for x in (self.eval_matrix @ vec) % self.fp.q)

    def unembed(self, values: tuple[int, ...]) -> tuple[int, ...]:
        vec = np.asarray([x % self.fp.q for x in values], dtype=np.int64)
        if vec.size != self.n:
            raise ParameterError(f"embedded vectors have {self.n} coordinates")
        return tuple(int(x) for x in (self.inv_matrix @ vec) % self.fp.q)

    def multiply(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Schoolbook polynomial product reduced mod Phi_m, independent of the embedding."""
        q = self.fp.q
        prod = [0] * (2 * self.n - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % q
        mod = self.modulus  # monic of degree n
        for deg in range(len(prod) - 1, self.n - 1, -1):
            coeff = prod[deg]
            if coeff:
                prod[deg] = 0
                for i in range(self.n):
                    prod[deg - self.n + i] = (prod[deg - self.n + i] - coeff * mod[i]) % q
        return tuple(prod[: self.n])

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((ai + bi) % self.fp.q for ai, bi in zip(a, b))


@lru_cache(maxsize=8)
def _ring_tables(q: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """phi(a) for every a in R_q and the flat-index part of its first block."""
    emb = RingEmbedding.build(FieldParams(q), m)
    phi_a = _vector_table(q, emb.n) @ emb.eval_matrix.T % q
    first_block = _flat_indices(phi_a, q, emb.n) * q**emb.n
    for table in (phi_a, first_block):
        table.flags.writeable = False  # shared by every caller
    return phi_a, first_block


def ring_sample_state(
    emb: RingEmbedding, s: tuple[int, ...], e: tuple[int, ...]
) -> DenseState:
    """(1/sqrt(q^n)) sum_{a in R_q} |phi(a)>|phi(a s + e)> on 2n registers.

    e is the single global error shared by every element of the superposition.
    """
    q = emb.fp.q
    phi_a, first_block = _ring_tables(q, emb.m)
    phi_s = np.asarray(emb.embed(s), dtype=np.int64)
    phi_e = np.asarray(emb.embed(e), dtype=np.int64)
    second = (phi_a * phi_s + phi_e) % q
    amps = np.zeros(q ** (2 * emb.n), dtype=np.complex128)
    amps[first_block + _flat_indices(second, q, emb.n)] = 1.0 / math.sqrt(q**emb.n)
    return DenseState(emb.fp, 2 * emb.n, amps)


def ring_sample_stream(
    emb: RingEmbedding,
    s: tuple[int, ...],
    rng: np.random.Generator,
    noise: str = "uniform-global",
) -> Callable[[], DenseState]:
    """Fresh ring samples; the global error is redrawn uniformly over R_q per call.

    noise: "uniform-global" or "none".  Per-element ring noise is not a
    supported model and is rejected.
    """
    if noise not in ("uniform-global", "none"):
        raise ParameterError(
            f"unsupported ring noise model {noise!r}: only a global shift keeps the "
            "error a removable phase"
        )
    q = emb.fp.q
    s = tuple(x % q for x in s)

    def source() -> DenseState:
        if noise == "uniform-global":
            e = uniform_vector(q, emb.n, rng)
        else:
            e = (0,) * emb.n
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
