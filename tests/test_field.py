import cmath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditlearn.field import (
    FieldParams,
    NoInverseError,
    NoRootError,
    ParameterError,
    centered,
    centered_abs,
    is_prime,
    mod_inverse,
    primitive_mth_root,
    roots_of_unity,
)

ODD_PRIMES = (3, 5, 7, 11, 13, 101, 257)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(4) and not is_prime(561)  # 561 is Carmichael
    assert not is_prime(2**40 - 1)


@pytest.mark.parametrize("a, q, expected", [(0, 7, 0), (5, 7, 2), (3, 7, 3)])
def test_centered_abs_examples(a, q, expected):
    assert centered_abs(a, q) == expected


def test_centered_abs_rejects_even_or_composite_modulus():
    with pytest.raises(ParameterError):
        centered_abs(1, 4)
    with pytest.raises(ParameterError):
        centered_abs(1, 9)


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=-(10**12), max_value=10**12))
def test_centered_representative_properties(q, a):
    b = centered(a, q)
    assert -(q - 1) // 2 <= b <= (q - 1) // 2
    assert (b - a) % q == 0
    assert centered_abs(a, q) == centered_abs((q - a) % q, q) <= (q - 1) // 2


@pytest.mark.parametrize("a, q, expected", [(1, 11, 1), (3, 7, 5)])
def test_mod_inverse_examples(a, q, expected):
    assert mod_inverse(a, q) == expected


def test_mod_inverse_exhaustive_f13():
    for a in range(1, 13):
        assert a * mod_inverse(a, 13) % 13 == 1


def test_mod_inverse_bijection_and_self_inverses():
    for q in (7, 101):
        assert {mod_inverse(a, q) for a in range(1, q)} == set(range(1, q))
        assert [a for a in range(1, q) if mod_inverse(a, q) == a] == [1, q - 1]


def test_mod_inverse_of_zero_fails():
    with pytest.raises(NoInverseError):
        mod_inverse(0, 7)


def test_primitive_square_root_is_minus_one():
    assert primitive_mth_root(2, 7) == 6


def test_primitive_fourth_root_mod_13_has_exact_order():
    g = primitive_mth_root(4, 13)
    # exhaustive order check
    powers = [pow(g, e, 13) for e in range(1, 5)]
    assert powers[3] == 1 and 1 not in powers[:3]


def test_primitive_root_requires_divisibility():
    with pytest.raises(NoRootError):
        primitive_mth_root(5, 7)


@given(st.sampled_from((8, 12, 16)))
def test_primitive_root_mod_q_exhaustive_oracle(m):
    # q = 97: q - 1 = 96 is divisible by 8, 12 and 16
    g = primitive_mth_root(m, 97)
    assert pow(g, m, 97) == 1
    assert all(pow(g, d, 97) != 1 for d in range(1, m))


def test_field_params_rejects_composite_and_oversized():
    with pytest.raises(ParameterError):
        FieldParams(4)
    with pytest.raises(ParameterError):
        FieldParams(2**41 + 1)


@given(
    st.sampled_from((3, 13, 101, 65537)),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=-(2**62), max_value=2**62),
)
def test_omega_power_additivity(q, i, j):
    roots = roots_of_unity(q)
    assert abs(roots[i % q] * roots[j % q] - roots[(i + j) % q]) <= 1e-9


def test_roots_of_unity_table_is_read_only_and_exact():
    roots = roots_of_unity(13)
    assert roots.shape == (13,)
    assert all(abs(roots[r] - cmath.exp(2j * cmath.pi * r / 13)) <= 1e-15 for r in range(13))
    with pytest.raises(ValueError):
        roots[0] = 0.0


def test_composite_modulus_is_rejected_on_every_call():
    for _ in range(2):
        with pytest.raises(ParameterError):
            centered_abs(1, 9)
        with pytest.raises(ParameterError):
            centered(1, 4)
