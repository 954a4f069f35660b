"""Prime-field arithmetic: centered representatives, inverses and roots of unity.

Field elements are plain Python ints reduced to [0, q).  ``FieldParams``
holds a checked prime modulus, ``roots_of_unity`` tables all q powers of the
complex root exp(2*pi*i/q), and ``phase_table`` gathers the omega^(r*c) table
that both engines read; everything here is immutable and safe to share.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_Q = 2**40  # the largest modulus accepted; int64 array code checks its own bound (ring.ring_dimension)

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24; also is_prime's trial divisors.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class ParameterError(ValueError):
    """Invalid modulus or parameter combination."""


class NoInverseError(ParameterError):
    """Requested inverse of a non-invertible element."""


class NoRootError(ParameterError):
    """No primitive root of the requested order exists."""


def is_integer(value) -> bool:  # a Python or numpy int, but not a bool
    # the exact-type test first: an ABC isinstance costs about 20 times as much
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-scale integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """A prime modulus q, checked on construction."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise ParameterError(f"modulus must be prime, got {self.q!r}")
        if self.q > MAX_Q:
            raise ParameterError(f"modulus {self.q} exceeds the 2**40 cap")


@lru_cache(maxsize=16)
def roots_of_unity(q: int) -> np.ndarray:
    """Read-only table of exp(2*pi*i*r/q) for r = 0..q-1.

    Index it with exponents already reduced mod q: raw exponents such as
    a*j overflow double precision long before q does.
    """
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    roots.flags.writeable = False
    return roots


def phase_table(q: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """omega^(r*c) for every r in rows and c in cols, both already reduced mod q."""
    return roots_of_unity(q)[np.multiply.outer(rows, cols) % q]


def _require_odd_prime(q: int) -> None:
    if q % 2 == 0 or not is_prime(q):
        raise ParameterError(f"centered representatives need an odd prime modulus, got {q}")


def centered(a: int, q: int) -> int:
    """The unique b = a (mod q) in [-(q-1)/2, (q-1)/2]."""
    _require_odd_prime(q)
    a %= q
    return a - q if a > (q - 1) // 2 else a


def centered_abs(a: int, q: int) -> int:
    """Magnitude of the centered representative of a modulo q."""
    return abs(centered(a, q))


def mod_inverse(a: int, q: int) -> int:
    """Multiplicative inverse of a modulo prime q."""
    a %= q
    if a == 0:
        raise NoInverseError("0 has no multiplicative inverse")
    return pow(a, -1, q)


def _prime_divisors(m: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def primitive_mth_root(m: int, q: int) -> int:
    """An element of multiplicative order exactly m modulo prime q.

    Requires m | q-1; raises NoRootError otherwise.
    """
    if not is_prime(q):
        raise ParameterError(f"modulus must be prime, got {q}")
    if m < 1 or (q - 1) % m != 0:
        raise NoRootError(f"{m} does not divide {q - 1}, no order-{m} element exists")
    if m == 1:
        return 1
    cofactor = (q - 1) // m
    for g in range(2, q):
        h = pow(g, cofactor, q)
        if all(pow(h, m // p, q) != 1 for p in _prime_divisors(m)):
            return h
    raise NoRootError(f"no element of order {m} found modulo {q}")  # unreachable for prime q
