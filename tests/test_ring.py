import math

import numpy as np
import pytest

from quditlearn.field import FieldParams, NoRootError, ParameterError
from quditlearn.ring import (
    RingEmbedding,
    _ring_tables,
    cyclotomic_poly,
    euler_phi,
    ring_lwe_global_learn,
    ring_sample_state,
    ring_sample_stream,
)

from conftest import basis_state, make_rng


def all_ring_elements(q, n):
    from itertools import product

    return [tuple(c) for c in product(range(q), repeat=n)]


def naive_poly_mul_mod(a, b, modulus, q):
    """Schoolbook oracle independent of RingEmbedding.multiply's reduction loop."""
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


@pytest.mark.parametrize(
    "m, expected",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomials_known_table(m, expected):
    assert cyclotomic_poly(m) == expected


def test_euler_phi_small_values():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]


def test_embedding_requires_conductor_dividing_q_minus_1():
    with pytest.raises(NoRootError):
        RingEmbedding.build(FieldParams(7), 4)  # 4 does not divide 6


def test_embedding_structure_q13_m4():
    emb = RingEmbedding.build(FieldParams(13), 4)
    assert emb.n == 2 == euler_phi(4)
    assert emb.exponents == (1, 3)
    assert pow(emb.omega_m, 4, 13) == 1 and pow(emb.omega_m, 2, 13) != 1
    assert emb.modulus == (1, 0, 1)  # x^2 + 1


def test_embedding_is_bijective_q13_m4():
    emb = RingEmbedding.build(FieldParams(13), 4)
    images = {emb.embed(a) for a in all_ring_elements(13, 2)}
    assert len(images) == 13**2


def test_unembed_inverts_embed_exhaustively():
    emb = RingEmbedding.build(FieldParams(13), 4)
    for a in all_ring_elements(13, 2):
        assert emb.unembed(emb.embed(a)) == a


def test_embedding_multiplication_homomorphism_exhaustive():
    emb = RingEmbedding.build(FieldParams(13), 4)
    elements = all_ring_elements(13, 2)
    for a in elements:
        phi_a = emb.embed(a)
        for b in elements:
            phi_b = emb.embed(b)
            componentwise = tuple(x * y % 13 for x, y in zip(phi_a, phi_b))
            assert emb.embed(emb.multiply(a, b)) == componentwise


def test_ring_multiply_matches_schoolbook_oracle():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(601)
    for _ in range(50):
        a = tuple(int(x) for x in rng.integers(0, 13, size=2))
        b = tuple(int(x) for x in rng.integers(0, 13, size=2))
        assert emb.multiply(a, b) == naive_poly_mul_mod(a, b, emb.modulus, 13)


def test_embedding_addition_homomorphism():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(602)
    for _ in range(50):
        a = tuple(int(x) for x in rng.integers(0, 13, size=2))
        b = tuple(int(x) for x in rng.integers(0, 13, size=2))
        lhs = emb.embed(emb.add(a, b))
        rhs = tuple((x + y) % 13 for x, y in zip(emb.embed(a), emb.embed(b)))
        assert lhs == rhs


def test_larger_conductor_m6_q13():
    emb = RingEmbedding.build(FieldParams(13), 6)
    assert emb.n == 2 and emb.exponents == (1, 5)
    for a in all_ring_elements(13, 2)[:40]:
        assert emb.unembed(emb.embed(a)) == a


def test_ring_sample_state_shape_and_support():
    emb = RingEmbedding.build(FieldParams(13), 4)
    state = ring_sample_state(emb, (3, 7), (0, 0))
    assert state.num_registers == 4
    probs = state.probabilities()
    assert np.count_nonzero(probs) == 13**2
    assert probs.max() == pytest.approx(1 / 13**2, abs=1e-12)


def test_ring_tables_cache_is_bounded_and_read_only():
    assert 0 < _ring_tables.cache_info().maxsize < 100
    tables = _ring_tables(13, 4)
    emb = RingEmbedding.build(FieldParams(13), 4)
    assert [tuple(row) for row in tables[0].tolist()] == [emb.embed(a) for a in all_ring_elements(13, 2)]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0


def test_ring_learner_outputs_exact_secret_or_bot():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(603)
    s = (3, 7)
    source = ring_sample_stream(emb, s, rng)
    bots = 0
    for _ in range(150):
        out = ring_lwe_global_learn(emb, source, rng)
        if out.is_bot:
            bots += 1
        else:
            assert out.secret == s  # global error never corrupts a non-bot outcome
    assert 0 < bots < 150


def test_ring_learner_success_rate_matches_closed_form():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(604)
    s = (5, 11)
    source = ring_sample_stream(emb, s, rng, noise="none")
    n_trials = 2_000
    hits = sum(ring_lwe_global_learn(emb, source, rng).secret == s for _ in range(n_trials))
    p = (12 / 13) ** 2
    sigma = math.sqrt(p * (1 - p) / n_trials)
    assert abs(hits / n_trials - p) <= 3 * sigma


def test_per_element_ring_noise_rejected():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(605)
    with pytest.raises(ParameterError):
        ring_sample_stream(emb, (1, 2), rng, noise="per-element")


def test_ring_learner_validates_register_count():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(606)
    bad = basis_state([((0, 0), 1.0)], FieldParams(13))
    with pytest.raises(ParameterError):
        ring_lwe_global_learn(emb, lambda: bad, rng)
