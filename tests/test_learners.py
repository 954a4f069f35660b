import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from quditlearn.dense import StateError, weighted_index
from quditlearn.field import FieldParams, ParameterError, centered, centered_abs
from quditlearn.learners import (
    BOT,
    BvOutcome,
    field_bv,
    lpn_learn,
    lwe_learn,
    lwr_classical_drawer,
    lwr_decode,
    lwr_decoding_table,
    lwr_learn,
    lwr_noise_bound,
    lwr_round,
    lwr_sample_spec,
    sis_learn,
    sis_sample_state,
    test_candidate,
)
from quditlearn.samples import (
    ENUMERABLE_LIMIT,
    NoiseModel,
    SampleSpec,
    classical_drawer,
    dense_outcome_distribution,
    draw_classical_sample,
    draw_sample_spec,
    materialize_dense,
    outcome_distribution,
    spec_drawer,
)

from conftest import make_rng


def test_bv_outcome_basics():
    assert BOT.is_bot and BOT.secret is None
    assert not BvOutcome((1, 2)).is_bot


def test_learners_reject_bad_arguments_before_any_draw():
    def source():
        raise AssertionError("the source was called")

    rng = make_rng(500)
    for kwargs in ({"L": 0}, {"L": 1, "M": -1}, {"L": 1, "k": -1}, {"L": 1, "engine": "qualia"},
                   {"L": 1, "M": 1, "classical": None}):  # a test of M >= 1 samples needs an oracle
        with pytest.raises(ParameterError):
            lwe_learn(**{"source": source, "classical": source, "rng": rng, **kwargs})
    with pytest.raises(ParameterError, match=r"^the candidate test reads M = 2 classical samples, so it needs an "
                                             r"oracle, got None$"):
        lwr_learn(16, 257, source, None, rng, L=1, M=2)
    for kwargs in ({"L": 0}, {"L": 1, "engine": "qualia"}):
        with pytest.raises(ParameterError):
            lpn_learn(source=source, rng=rng, **kwargs)


def test_field_bv_dense_noiseless_rate():
    fp = FieldParams(5)
    s = (2, 4)
    rng = make_rng(501)
    spec = SampleSpec(fp=fp, n=2, s=s, v=25, noise=NoiseModel.none(), histogram={0: 25})
    state = materialize_dense(spec)
    n_trials = 10_000
    hits = sum(field_bv(state, rng).secret == s for _ in range(n_trials))
    sigma = math.sqrt(0.8 * 0.2 / n_trials)
    assert abs(hits / n_trials - 0.8) <= 3 * sigma


def test_field_bv_engines_agree_on_category_probabilities():
    fp = FieldParams(7)
    rng = make_rng(502)
    spec = draw_sample_spec(fp, 1, (4,), 7, NoiseModel.bounded_uniform(1), rng)
    dist = outcome_distribution(spec)
    # dense exact values off the same spec
    dense = dense_outcome_distribution(spec)
    assert abs(dense.p_correct - dist.p_correct) <= 1e-9
    assert abs(dense.p_bot - dist.p_bot) <= 1e-9
    # analytic sampling matches its own exact category law
    n_trials = 20_000
    cats = {"s": 0, "bot": 0, "wrong": 0}
    for _ in range(n_trials):
        out = field_bv(spec, rng)
        if out.is_bot:
            cats["bot"] += 1
        elif out.secret == (4,):
            cats["s"] += 1
        else:
            cats["wrong"] += 1
    for key, p in (("s", dist.p_correct), ("bot", dist.p_bot), ("wrong", dist.p_wrong)):
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / n_trials)
        assert abs(cats[key] / n_trials - p) <= 4 * sigma + 1e-9


def test_field_bv_bot_rate_one_over_q_both_engines():
    fp = FieldParams(5)
    rng = make_rng(503)
    n_trials = 8_000
    spec_src = partial(spec_drawer(fp, 1, (2,), 5, NoiseModel.bounded_uniform(2)), rng)
    bots_analytic = sum(field_bv(spec_src(), rng).is_bot for _ in range(n_trials))
    bots_dense = sum(field_bv(materialize_dense(spec_src()), rng).is_bot for _ in range(n_trials))
    sigma = math.sqrt(0.2 * 0.8 / n_trials)
    assert abs(bots_analytic / n_trials - 0.2) <= 3 * sigma
    assert abs(bots_dense / n_trials - 0.2) <= 3 * sigma


def test_field_bv_analytic_wrong_outputs_never_secret():
    fp = FieldParams(3)
    rng = make_rng(504)
    spec = SampleSpec(fp=fp, n=1, s=(1,), v=1, noise=NoiseModel.none(), subset=[1], errors=[0])
    seen_wrong = False
    for _ in range(400):
        out = field_bv(spec, rng)
        if not out.is_bot and out.secret != (1,):
            seen_wrong = True
            assert out.secret != (1,)
    assert seen_wrong  # v=1 specs leave plenty of wrong mass


# --- candidate test --------------------------------------------------------


def test_correct_candidate_always_accepted():
    fp = FieldParams(11)
    rng = make_rng(505)
    s = (4, 9)
    classical = classical_drawer(fp, 2, s, 121, NoiseModel.bounded_uniform(1))
    assert all(test_candidate(s, classical, 11, 3, 1, rng) for _ in range(2_000))


def test_wrong_candidate_acceptance_rate():
    fp = FieldParams(11)
    rng = make_rng(506)
    s = (7,)
    wrong = (8,)
    classical = classical_drawer(fp, 1, s, 11, NoiseModel.bounded_uniform(1))
    n_trials = 20_000
    accepts = sum(test_candidate(wrong, classical, 11, 2, 1, rng) for _ in range(n_trials))
    p = (3 / 11) ** 2
    sigma = math.sqrt(p * (1 - p) / n_trials)
    assert abs(accepts / n_trials - p) <= 3 * sigma


def test_vacuous_candidate_test_accepts_everything():
    fp = FieldParams(11)
    rng = make_rng(507)
    classical = classical_drawer(fp, 1, (7,), 11, NoiseModel.bounded_uniform(1))
    assert all(test_candidate((c,), classical, 11, 1, 5, rng) for c in range(11))  # k = (q-1)/2


@pytest.mark.parametrize("q", [3, 11, 101])
def test_candidate_test_accepts_exactly_the_centered_residues_within_k(q):
    # b - a.candidate = r for a = (1, 2) and candidate (3, 5); r runs over three periods
    for k in (0, 1, (q - 1) // 2, q, 2 * q + 1):
        for r in range(-q, 2 * q):
            draws = 0

            def classical(rng):
                nonlocal draws
                draws += 1
                return (1, 2), r + 13

            accepted = centered_abs(r, q) <= k
            assert test_candidate((3, 5), classical, q, 3, k, None) == accepted, (k, r)
            assert draws == (3 if accepted else 1)  # stops at the first rejecting sample


@pytest.mark.parametrize("q", [2, 4])
def test_candidate_test_rejects_an_even_modulus_before_any_draw(q):
    def classical(rng):
        raise AssertionError("drew a sample")

    for k in (0, 1, q):
        with pytest.raises(ParameterError, match="odd modulus"):
            test_candidate((1,), classical, q, 1, k, None)


# --- the repetition learner --------------------------------------------------


def test_lwe_learn_noiseless_single_round():
    fp = FieldParams(7)
    rng = make_rng(508)
    s = (3, 5)
    source = partial(spec_drawer(fp, 2, s, 49, NoiseModel.none()), rng)
    n_runs = 10_000
    hits = sum(lwe_learn(1, source, None, rng, M=0, engine="analytic").secret == s for _ in range(n_runs))
    sigma = math.sqrt((6 / 7) * (1 / 7) / n_runs)
    assert abs(hits / n_runs - 6 / 7) <= 3 * sigma


def test_lwe_learn_failure_bound_deterministic_spec():
    # fixed errors -> per-round success probability is exactly p_correct;
    # Monte Carlo failure rate must respect (1-p)^L + (3k/q)^M L
    fp = FieldParams(31)
    rng = make_rng(509)
    s = (11,)
    spec = lwr_sample_spec(fp, 1, s, 4)  # deterministic errors, k' = 5
    p_correct = outcome_distribution(spec).p_correct
    L, M, k = 5, 2, lwr_noise_bound(4, 31)
    n_runs = 4_000
    classical = lwr_classical_drawer(fp, 1, s, 4)
    fails = sum(lwe_learn(L, lambda: spec, classical, rng, M, k, "analytic").secret != s for _ in range(n_runs))
    bound = (1 - p_correct) ** L + (3 * k / 31) ** M * L
    rate = fails / n_runs
    sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / n_runs)
    assert rate <= bound + 3 * sigma


def test_lwe_learn_sample_budget():
    fp = FieldParams(101)
    rng = make_rng(510)
    s = (13, 57)
    noise = NoiseModel.gaussian(1.0, 2)
    quantum = classical = 0
    inner = partial(spec_drawer(fp, 2, s, 101**2, noise, errors_as="histogram"), rng)
    inner_classical = classical_drawer(fp, 2, s, 101**2, noise, errors_as="histogram")

    def counting_source():
        nonlocal quantum
        quantum += 1
        return inner()

    def counting_classical(generator):
        nonlocal classical
        classical += 1
        return inner_classical(generator)

    L, M = 10, 2
    tested = 0
    for _ in range(50):
        quantum = classical = 0
        lwe_learn(L, counting_source, counting_classical, rng, M, 2, "analytic")
        assert quantum <= L and classical <= L * M
        tested += classical > 0
    assert tested > 0  # some run reached the candidate test


def test_lwe_learn_scaled_cryptographic_regime():
    # q = 257 with k = 3 noise, L = ceil(20 k ln(1/0.1)), M = 1: consumption
    # stays within L (1 + M) and recovery dominates over 60 seeded runs
    fp = FieldParams(257)
    k = 3
    L = math.ceil(20 * k * math.log(10))
    hits = 0
    for run in range(60):
        rng = make_rng(0xC0 + run)
        s = tuple(int(x) for x in rng.integers(0, 257, size=1))
        inner = partial(spec_drawer(fp, 1, s, 257, NoiseModel.bounded_uniform(k), errors_as="histogram"), rng)
        inner_classical = classical_drawer(fp, 1, s, 257, NoiseModel.bounded_uniform(k), errors_as="histogram")
        consumed = 0

        def source():
            nonlocal consumed
            consumed += 1
            return inner()

        def classical(generator):
            nonlocal consumed
            consumed += 1
            return inner_classical(generator)

        hits += lwe_learn(L, source, classical, rng, 1, k, "analytic").secret == s
        assert consumed <= L * 2
    assert hits >= 48


def test_lwe_learn_dense_engine_matches_rate():
    fp = FieldParams(5)
    rng = make_rng(511)
    s = (1, 2)
    source = partial(spec_drawer(fp, 2, s, 25, NoiseModel.none()), rng)
    n_runs = 4_000
    hits = sum(lwe_learn(1, source, None, rng, M=0, engine="dense").secret == s for _ in range(n_runs))
    sigma = math.sqrt(0.8 * 0.2 / n_runs)
    assert abs(hits / n_runs - 0.8) <= 3 * sigma


# --- parity learner ----------------------------------------------------------


def lpn_joint_secret_probability(errors: list[int], n: int) -> float:
    """Oracle: P(j = s, j* = 1) for a fixed error assignment, by direct formula."""
    total = sum(1 if e == 0 else -1 for e in errors)
    return total * total / 2 ** (2 * n + 1)


def test_lpn_noiseless_joint_probability_exact():
    fp = FieldParams(2)
    n = 6
    s = (1, 0, 1, 1, 0, 1)
    spec = SampleSpec(fp=fp, n=n, s=s, v=64, noise=NoiseModel.bernoulli(0.0), histogram={0: 64})
    good = dense_outcome_distribution(spec).per_jstar_good[1]  # at q = 2 the cell (s, 1)
    assert good == pytest.approx(0.5, abs=1e-9)
    assert good == pytest.approx(lpn_joint_secret_probability([0] * 64, n), abs=1e-12)


def test_lpn_dense_joint_probability_matches_oracle_for_noisy_draws():
    fp = FieldParams(2)
    n = 4
    s = (1, 0, 1, 1)
    rng = make_rng(512)
    for _ in range(10):
        spec = draw_sample_spec(fp, n, s, 16, NoiseModel.bernoulli(0.2), rng)
        errors = spec.errors.tolist()  # aligned with flat indices 0..2^n-1, i.e. sorted vectors
        good = dense_outcome_distribution(spec).per_jstar_good[1]
        assert good == pytest.approx(lpn_joint_secret_probability(errors, n), abs=1e-12)


def test_lpn_global_flip_probability_is_half_regardless_of_flip():
    # Cross-style noise: the whole parity register flips together
    fp = FieldParams(2)
    n = 5
    s = (1, 1, 0, 1, 0)
    for flip in (0, 1):
        spec = SampleSpec(fp=fp, n=n, s=s, v=32,
                          noise=NoiseModel.bernoulli(0.4), histogram={flip: 32})
        assert dense_outcome_distribution(spec).per_jstar_good[1] == pytest.approx(0.5, abs=1e-12)


def test_lpn_learn_recovers_secret_at_moderate_noise():
    fp = FieldParams(2)
    n = 6
    s = (1, 0, 0, 1, 1, 0)
    rng = make_rng(513)
    source = partial(spec_drawer(fp, n, s, 64, NoiseModel.bernoulli(0.1)), rng)
    hits = sum(lpn_learn(25, source, rng, "dense").secret == s for _ in range(40))
    assert hits >= 38  # plurality over 25 rounds at eta = 0.1 is near-certain


def test_lpn_learn_rejects_wrong_field():
    fp = FieldParams(3)
    rng = make_rng(514)
    source = partial(spec_drawer(fp, 1, (1,), 3, NoiseModel.none()), rng)
    with pytest.raises(ParameterError):
        lpn_learn(3, source, rng, "dense")


def test_lpn_learn_bot_when_no_votes():
    fp = FieldParams(2)
    rng = make_rng(515)

    calls = 0

    def biased_source():
        nonlocal calls
        calls += 1
        return draw_sample_spec(fp, 2, (1, 0), 4, NoiseModel.bernoulli(0.0), rng)

    # rounds=1: a single round lands bot with probability 1/2
    outcomes = {lpn_learn(1, biased_source, rng, "dense").is_bot for _ in range(60)}
    assert outcomes == {True, False}


# --- rounding learner ----------------------------------------------------------


def test_rounding_residual_bounded_exhaustively():
    for q, p in ((31, 4), (257, 16)):
        kp = lwr_noise_bound(p, q)
        for x in range(q):
            decoded = lwr_decode(lwr_round(x, p, q), p, q)
            assert centered_abs(decoded - x, q) <= kp


def test_rounding_map_is_identity_at_p_equals_q():
    # the round/decode pair degenerates to the identity map when p = q;
    # the learner itself rejects p >= q, so only the map-level fact is checked
    q = 31
    for x in range(q):
        assert lwr_decode(lwr_round(x, q, q), q, q) == x
    with pytest.raises(ParameterError):
        lwr_noise_bound(q, q)


@pytest.mark.parametrize("q, p", [(3, 2), (11, 3), (101, 8), (257, 16), (65537, 4096)])
def test_lwr_decoding_table_and_residuals_match_the_scalar_maps(q, p):
    decoded = [lwr_decode(lwr_round(x, p, q), p, q) for x in range(q)]
    residual = [centered(d - x, q) for x, d in enumerate(decoded)]
    table = lwr_decoding_table(q, p)
    assert table.dtype == np.int64 and not table.flags.writeable and lwr_decoding_table(q, p) is table
    assert table.tolist() == decoded
    fp = FieldParams(q)
    classical, rng = lwr_classical_drawer(fp, 1, (1,), p), make_rng(q)
    assert all(b == decoded[a[0]] for a, b in (classical(rng) for _ in range(50)))
    if (q, p) == (3, 2):  # the residual bound k = 2 leaves no room for 2k + 1 values in Z_3
        with pytest.raises(ParameterError, match="p=2 is too coarse for q=3"):
            lwr_sample_spec(fp, 1, (1,), p)
        return
    assert lwr_sample_spec(fp, 1, (1,), p).errors.tolist() == residual  # a.s = a: one error per residue
    n = next(n for n in itertools.count(1) if q**n > ENUMERABLE_LIMIT)
    counts: dict[int, int] = {}  # the scalar reference, in first-occurrence order
    for r in residual:
        counts[r] = counts.get(r, 0) + q ** (n - 1)
    assert list(lwr_sample_spec(fp, n, (1,) * n, p).histogram.items()) == list(counts.items())
    assert lwr_sample_spec(fp, n, (0,) * n, p).histogram == {residual[0]: q**n}


def test_lwr_decoding_table_rejects_what_it_cannot_tabulate():
    for q, p in ((31, 1), (31, 31), (67108879, 16)):  # p below 2, p = q, a prime q above 2**26
        with pytest.raises(ParameterError):
            lwr_decoding_table(q, p)


def test_lwr_spec_roundtrip_against_direct_construction():
    fp = FieldParams(31)
    s = (7,)
    spec = lwr_sample_spec(fp, 1, s, 4)
    assert spec.v == 31 and spec.subset is None and spec.errors is not None
    for a, e in enumerate(spec.errors.tolist()):
        assert (a * 7 + e) % 31 == lwr_decode(lwr_round(a * 7 % 31, 4, 31), 4, 31)


@pytest.mark.parametrize("s", [(0, 0, 0), (5, 0, 77)])
def test_lwr_histogram_spec_above_the_enumeration_limit(s):
    # q^n = 101^3 > ENUMERABLE_LIMIT, so the spec keeps counts instead of an error per vector
    q, n, p = 101, 3, 8
    spec = lwr_sample_spec(FieldParams(q), n, s, p)
    assert spec.errors is None and spec.v == q**n
    residual = np.array([centered(lwr_decode(lwr_round(x, p, q), p, q) - x, q) for x in range(q)])
    a = np.arange(q, dtype=np.int64)
    dots = (a[:, None, None] * s[0] + a[None, :, None] * s[1] + a[None, None, :] * s[2]) % q
    values, counts = np.unique(residual[dots], return_counts=True)
    assert spec.histogram == dict(zip(values.tolist(), counts.tolist()))
    phases = np.exp(2j * np.pi * np.outer(np.arange(1, q), values) / q)
    p_correct = float(np.sum(np.abs(phases @ counts) ** 2)) / (q**n * float(q) ** (n + 1))
    assert abs(outcome_distribution(spec).p_correct - p_correct) <= 1e-12


@pytest.mark.parametrize("q, n, p", [(31, 1, 4), (257, 1, 16), (11, 3, 3), (101, 2, 8)])
def test_lwr_oracle_draws_the_spec_classical_sample_below_the_enumeration_limit(q, n, p):
    fp = FieldParams(q)
    for seed in range(300):
        s = tuple(int(x) for x in make_rng(seed).integers(0, q, size=n))
        spec, classical = lwr_sample_spec(fp, n, s, p), lwr_classical_drawer(fp, n, s, p)
        oracle_rng, spec_rng = make_rng(1000 + seed), make_rng(1000 + seed)
        assert classical(oracle_rng) == draw_classical_sample(spec, spec_rng)
        assert oracle_rng.random() == spec_rng.random()


def test_lwr_oracle_ties_b_to_a_s_above_the_enumeration_limit():
    # q^n = 101^3 > ENUMERABLE_LIMIT: the candidate -s passes one test sample when
    # |decode(round(x)) + x| <= k' (centered) for x = a.s, which holds for 25 of the
    # 101 values of a.s in real LWR samples; a residual drawn independently of a.s
    # would pass at 17/101
    q, n, p = 101, 3, 8
    k = lwr_noise_bound(p, q)
    assert sum(centered_abs(lwr_decode(lwr_round(x, p, q), p, q) + x, q) <= k for x in range(q)) == 25
    s = (5, 0, 77)
    classical = lwr_classical_drawer(FieldParams(q), n, s, p)
    rng = make_rng(518)
    for _ in range(200):
        a, b = classical(rng)
        assert b == lwr_decode(lwr_round(sum(x * y for x, y in zip(a, s)), p, q), p, q)
    minus_s = tuple(-x % q for x in s)
    trials = 20_000
    passes = sum(test_candidate(minus_s, classical, q, 1, k, rng) for _ in range(trials))
    sigma = math.sqrt((25 / 101) * (76 / 101) / trials)
    assert abs(passes / trials - 25 / 101) <= 5 * sigma


def test_lwr_law_sums_error_counts_in_first_occurrence_order():
    # Pinned to the last bit: summing the histogram in sorted value order gives ...186.
    spec = lwr_sample_spec(FieldParams(257), 1, (52,), 16)
    assert outcome_distribution(spec).p_correct == 0.05644294387500189


def test_lwr_per_iteration_success_meets_bound():
    fp = FieldParams(257)
    spec = lwr_sample_spec(fp, 1, (123,), 16)
    assert outcome_distribution(spec).p_correct >= 16 / (12 * 256)


def test_lwr_learn_recovers():
    # per-iteration success ~ 0.056 and wrong-acceptance (2k'+1)/q ~ 0.082 per
    # test sample, so M = 3 is needed before correct candidates dominate
    fp = FieldParams(257)
    rng = make_rng(516)
    s = (200,)
    spec, classical = lwr_sample_spec(fp, 1, s, 16), lwr_classical_drawer(fp, 1, s, 16)
    hits = sum(lwr_learn(16, 257, lambda: spec, classical, rng, 120, 3, "analytic").secret == s for _ in range(30))
    assert hits >= 27


@pytest.mark.parametrize("q, p", [(257, 16), (31, 4)])
@pytest.mark.parametrize("M", [1, 3])
def test_lwr_learn_is_lwe_learn_at_the_rounding_bound(q, p, M):
    fp, L = FieldParams(q), 4
    k = -(-q // (2 * p)) + 1  # ceil(q / 2p) + 1
    for seed in range(200):
        spec = lwr_sample_spec(fp, 1, (seed % q,), p)
        classical = lwr_classical_drawer(fp, 1, (seed % q,), p)
        calls = 0

        def source():
            nonlocal calls
            calls += 1
            return spec

        lwr_rng, lwe_rng = make_rng(seed), make_rng(seed)
        got = lwr_learn(p, q, source, classical, lwr_rng, L, M)
        assert calls <= L
        assert got == lwe_learn(L, lambda: spec, classical, lwe_rng, M, k)
        assert lwr_rng.random() == lwe_rng.random()


def test_lwr_rejects_bad_modulus():
    fp = FieldParams(31)
    rng = make_rng(517)
    spec = lwr_sample_spec(fp, 1, (3,), 4)
    with pytest.raises(ParameterError):
        lwr_learn(40, 31, lambda: spec, None, rng, 1)


# --- short-solution learner -----------------------------------------------------


def test_sis_correct_candidate_never_rejected():
    fp = FieldParams(7)
    rng = make_rng(518)
    secret = (1, 6)  # centered magnitudes 1
    state = sis_sample_state(fp, 2, secret)
    marginal = state.apply_add_multiple(0, 2, (-1) % 7).apply_qft(0).register_marginal(0)
    assert marginal[0] == pytest.approx(1.0, abs=1e-12)


def test_sis_wrong_candidate_survival_exactly_one_over_q():
    fp = FieldParams(7)
    secret = (1, 6)
    state = sis_sample_state(fp, 2, secret)
    for j in (0, 1):  # wrong candidates for coordinate 0 (correct is -1)
        marginal = state.apply_add_multiple(0, 2, j % 7).apply_qft(0).register_marginal(0)
        assert marginal[0] == pytest.approx(1 / 7, abs=1e-12)


def test_sis_learn_recovers_short_secret():
    fp = FieldParams(7)
    rng = make_rng(519)
    secret = (1, 6)
    state = sis_sample_state(fp, 2, secret)
    hits = sum(sis_learn(1, 3, state, rng) == secret for _ in range(300))
    assert hits / 300 >= 1 - 6 / 343 - 3 * math.sqrt(0.02 / 300)


def _sis_learn_per_round(k, L, state, rng):
    """Reference screening: every round re-screens a fresh copy of the sample."""
    q = state.fp.q
    n = state.num_registers - 1
    recovered = []
    for i in range(n):
        accepted = None
        for j in range(-k, k + 1):
            if all(
                weighted_index(state.apply_add_multiple(i, n, j % q).apply_qft(i).register_marginal(i), rng) == 0
                for _ in range(L)
            ):
                accepted = j
                break
        if accepted is None:
            return None
        recovered.append((-accepted) % q)
    return tuple(recovered)


@pytest.mark.parametrize("q, n, k, L", [(7, 2, 1, 3), (5, 3, 2, 2), (3, 4, 1, 2), (11, 2, 3, 1)])
def test_sis_learn_matches_per_round_screening(q, n, k, L):
    fp = FieldParams(q)
    for seed in range(100):
        bound = k if seed % 2 else q // 2  # odd seeds: short secrets; even: any, so some runs return None
        secret = tuple(int(x) % q for x in make_rng(seed).integers(-bound, bound + 1, size=n))
        state = sis_sample_state(fp, n, secret)
        old = SampleSpec(fp=fp, n=n, s=secret, v=q**n, noise=NoiseModel.none(), histogram={0: q**n})
        reference = materialize_dense(old)
        assert state.amps.tobytes() == reference.amps.tobytes()
        assert state.support.tobytes() == reference.support.tobytes()
        rng, oracle = make_rng(10_000 + seed), make_rng(10_000 + seed)
        assert sis_learn(k, L, state, rng) == _sis_learn_per_round(k, L, state, oracle)
        assert rng.random() == oracle.random()


def test_sis_sample_state_checks_the_cap_before_building_indices():
    tracemalloc.start()
    try:
        with pytest.raises(StateError, match="cap"):
            sis_sample_state(FieldParams(11), 6, (1, 2, 3, 4, 5, 6))  # 11^7 amplitudes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sis_learn_requires_valid_parameters():
    fp = FieldParams(7)
    rng = make_rng(520)
    state = sis_sample_state(fp, 2, (1, 0))
    with pytest.raises(ParameterError):
        sis_learn(1, 0, state, rng)
    with pytest.raises(ParameterError):
        sis_sample_state(fp, 2, (1, 0, 0))
