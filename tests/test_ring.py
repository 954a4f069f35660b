import math

import numpy as np
import pytest

from quditlearn import ring
from quditlearn.cli import main
from quditlearn.field import FieldParams, NoRootError, ParameterError
from quditlearn.ring import (
    RingEmbedding,
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
    assert sorted(row[1] for row in emb.eval_matrix) == [x for x in range(13) if (x * x + 1) % 13 == 0]
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
    assert sorted(row[1] for row in emb.eval_matrix) == [x for x in range(13) if (x * x - x + 1) % 13 == 0]
    for a in all_ring_elements(13, 2)[:40]:
        assert emb.unembed(emb.embed(a)) == a


def test_ring_sample_state_shape_and_support():
    emb = RingEmbedding.build(FieldParams(13), 4)
    state = ring_sample_state(emb, (3, 7), (0, 0))
    assert state.num_registers == 4
    probs = state.probabilities()
    assert np.count_nonzero(probs) == 13**2
    assert probs.max() == pytest.approx(1 / 13**2, abs=1e-12)


def test_a_streams_samples_embed_its_secret_once():
    ring._secret_tables.cache_clear()
    source = ring_sample_stream(RingEmbedding.build(FieldParams(13), 4), (3, 7), make_rng(5))
    for _ in range(5):
        source()
    info = ring._secret_tables.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    starts, products = ring._secret_tables(RingEmbedding.build(FieldParams(13), 4), (3, 7))
    for table in (starts, *products):  # shared by every sample of the run
        with pytest.raises(ValueError):
            table[0] = 1


def test_embedding_memo_is_bounded_and_read_only():
    assert 0 < RingEmbedding.build.cache_info().maxsize < 100
    emb = RingEmbedding.build(FieldParams(13), 4)
    assert RingEmbedding.build(FieldParams(13), 4) is emb
    for matrix in (emb.eval_matrix, emb.inv_matrix):
        assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
        assert all(type(x) is int for row in matrix for x in row)
        with pytest.raises(TypeError):
            matrix[0] = (0, 0)
        with pytest.raises(TypeError):
            matrix[0][0] = 0


def test_embeddings_compare_by_identity():
    old = RingEmbedding.build(FieldParams(13), 4)
    RingEmbedding.build.cache_clear()
    new = RingEmbedding.build(FieldParams(13), 4)
    assert new is not old and old != new
    assert old == old and new == new
    assert len({hash(old), hash(new)}) == 2


def test_one_build_per_conductor_across_runs(capsys, monkeypatch):
    # the cli's n lookup, build_trial and every sample state share one embedding
    RingEmbedding.build.cache_clear()
    calls = []
    inverse = ring._matrix_inverse_mod

    def counted(mat, q):
        calls.append(q)
        return inverse(mat, q)

    monkeypatch.setattr(ring, "_matrix_inverse_mod", counted)
    argv = ["experiment", "--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global",
            "--k", "1", "--trials", "3"]
    assert main(argv) == 0
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [13]


def test_embedding_refuses_int64_overflow(capsys):
    # n (q-1)^2 > 2^63 - 1 at q = 4294967311, m = 3 (n = 2): int64 products would wrap
    with pytest.raises(ParameterError, match="4294967311"):
        RingEmbedding.build(FieldParams(4294967311), 3)
    code = main(["experiment", "--problem", "ring-global", "--q", "4294967311", "--m", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: modulus 4294967311")


def test_ring_dimension_and_cap_are_checked_before_any_embedding_is_built(capsys, monkeypatch):
    assert ring.ring_dimension(FieldParams(2003), 2002) == 720  # 2002 = 2 * 7 * 11 * 13

    def unbuilt(cls, fp, m):
        raise AssertionError(f"built the embedding at m = {m}")

    monkeypatch.setattr(RingEmbedding, "build", classmethod(unbuilt))
    cap = "error: dense engine infeasible: 2003^1440 amplitudes exceed the 2**22 cap\n"
    for argv, message in (
        (("--q", "2003", "--m", "2002"), cap),
        (("--q", "2003", "--m", "2002", "--n", "720"), cap),
        (("--q", "4001", "--m", "4000"), "error: q^n = 4001^1600 has more than 4300 digits\n"),
        (("--q", "4294967311", "--m", "3"),
         "error: modulus 4294967311 is too large for int64 ring arithmetic at n = 2\n"),
        (("--q", "13", "--m", "5"), "error: 5 does not divide 12, no order-5 element exists\n"),
    ):
        code = main(["experiment", "--problem", "ring-global", *argv])
        assert (code, *capsys.readouterr()) == (2, "", message), argv


@pytest.mark.parametrize("q, m", [(17, 16), (97, 32), (7681, 256)])
def test_embedding_beyond_n4(q, m):
    emb = RingEmbedding.build(FieldParams(q), m)
    n = m // 2
    assert emb.n == n
    product = [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*emb.inv_matrix)]
               for row in emb.eval_matrix]  # Python ints, which cannot wrap
    assert product == [[int(i == j) for j in range(n)] for i in range(n)]
    rng = make_rng(q)
    elements = [tuple(int(x) for x in rng.integers(0, q, size=n)) for _ in range(20)]
    points = [row[1] for row in emb.eval_matrix]
    for a in elements:
        # embed evaluates a at each point; unembed is the inverse matrix's Python-int product
        assert emb.embed(a) == tuple(sum(c * pow(pt, j, q) for j, c in enumerate(a)) % q for pt in points)
        assert emb.unembed(a) == tuple(sum(x * y for x, y in zip(row, a)) % q for row in emb.inv_matrix)
        assert emb.unembed(emb.embed(a)) == a
    if n <= 16:
        phi_m = (1,) + (0,) * (n - 1) + (1,)  # x^(m/2) + 1
        for a, b in zip(elements, elements[1:]):
            componentwise = tuple(x * y % q for x, y in zip(emb.embed(a), emb.embed(b)))
            assert emb.embed(naive_poly_mul_mod(a, b, phi_m, q)) == componentwise


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
    source = ring_sample_stream(emb, s, rng, global_error=False)
    n_trials = 2_000
    hits = sum(ring_lwe_global_learn(emb, source, rng).secret == s for _ in range(n_trials))
    p = (12 / 13) ** 2
    sigma = math.sqrt(p * (1 - p) / n_trials)
    assert abs(hits / n_trials - p) <= 3 * sigma


def test_ring_learner_validates_register_count():
    emb = RingEmbedding.build(FieldParams(13), 4)
    rng = make_rng(606)
    bad = basis_state([((0, 0), 1.0)], FieldParams(13))
    with pytest.raises(ParameterError):
        ring_lwe_global_learn(emb, lambda: bad, rng)
