import math

import numpy as np
import pytest

from quditlearn.field import FieldParams, NoRootError, ParameterError
from quditlearn.ring import (
    RingEmbedding,
    _ring_tables,
    ring_lwe_global_learn,
    ring_sample_state,
    ring_sample_stream,
)

from conftest import basis_state, make_rng, naive_poly_mul_mod


def all_ring_elements(q, n):
    from itertools import product

    return [tuple(c) for c in product(range(q), repeat=n)]


PHI_4 = (1, 0, 1)  # x^2 + 1, the 4th cyclotomic polynomial


def test_embedding_requires_conductor_dividing_q_minus_1():
    with pytest.raises(NoRootError):
        RingEmbedding.build(FieldParams(7), 4)  # 4 does not divide 6


def test_embedding_structure_q13_m4():
    emb = RingEmbedding.build(FieldParams(13), 4)
    assert emb.n == 2
    # the evaluation points are the roots of Phi_4 = x^2 + 1 mod 13
    assert sorted(emb.eval_matrix[:, 1].tolist()) == [x for x in range(13) if (x * x + 1) % 13 == 0]
    # n = phi(m) for every conductor m dividing q - 1 = 12
    euler_phi = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    assert {m: RingEmbedding.build(FieldParams(13), m).n for m in euler_phi} == euler_phi


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
            assert emb.embed(naive_poly_mul_mod(a, b, PHI_4, 13)) == componentwise


def test_embedding_addition_homomorphism():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(602)
    for _ in range(50):
        a = tuple(int(x) for x in rng.integers(0, 13, size=2))
        b = tuple(int(x) for x in rng.integers(0, 13, size=2))
        lhs = emb.embed(tuple((x + y) % 13 for x, y in zip(a, b)))
        rhs = tuple((x + y) % 13 for x, y in zip(emb.embed(a), emb.embed(b)))
        assert lhs == rhs


def test_larger_conductor_m6_q13():
    emb = RingEmbedding.build(FieldParams(13), 6)
    assert emb.n == 2
    # the evaluation points are the roots of Phi_6 = x^2 - x + 1 mod 13
    assert sorted(emb.eval_matrix[:, 1].tolist()) == [x for x in range(13) if (x * x - x + 1) % 13 == 0]
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
