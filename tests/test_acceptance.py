"""Acceptance suite: one test per shipped guarantee, each printing a PASS/FAIL line.

Every test is seeded and deterministic.  Time budgets are asserted with the
wall clock; the probabilistic checks use 3-sigma tolerances at their stated
trial counts.
"""

import itertools
import math
import time
from functools import partial

import numpy as np
import pytest

from quditlearn.cli import main as cli_main
from quditlearn.dense import weighted_index
from quditlearn.field import FieldParams, centered_abs
from quditlearn.learners import (
    field_bv,
    lwe_learn,
    lwr_decode,
    lwr_noise_bound,
    lwr_round,
    lwr_sample_spec,
    sis_learn,
    sis_sample_state,
    test_candidate,
)
from quditlearn.ring import RingEmbedding, ring_lwe_global_learn, ring_sample_stream
from quditlearn.samples import (
    NoiseModel,
    SampleSpec,
    dense_outcome_distribution,
    draw_sample_spec,
    drawers,
    materialize_dense,
    outcome_distribution,
    theoretical_bound,
)
from quditlearn.experiments import wilson_interval

from conftest import make_rng, naive_poly_mul_mod


def conclude(number: int, name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{name}] {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.1f}s"


def test_criterion_1_noiseless_success_rate():
    started = time.perf_counter()
    ok, details = True, []
    for idx, (q, n) in enumerate([(3, 2), (5, 2), (7, 3)]):
        rng = make_rng(0x1001 + idx)
        fp = FieldParams(q)
        s = tuple(int(x) for x in rng.integers(0, q, size=n))
        spec = SampleSpec(fp=fp, n=n, s=s, v=q**n, noise=NoiseModel.none(), histogram={0: q**n})
        exact = dense_outcome_distribution(spec).p_correct
        if abs(exact - (q - 1) / q) > 1e-9:
            ok = False
        trials = 10_000
        hits = sum(field_bv(materialize_dense(spec), rng).secret == s for _ in range(trials))
        lo, hi = wilson_interval(hits, trials)
        if not lo <= (q - 1) / q <= hi:
            ok = False
        details.append(f"(q={q},n={n}): exact={exact:.9f}, empirical={hits / trials:.4f}")
    conclude(1, "noiseless-success", ok, "; ".join(details), started, 10.0)


def test_criterion_2_attempt_bound_exhaustive():
    started = time.perf_counter()
    fp = FieldParams(7)
    noise = NoiseModel.bounded_uniform(1)
    bound_scale = theoretical_bound(7, 1, 7, 1, "paper") / 7  # = 1/(20*k*q^n) per unit v
    checked = 0
    worst_margin = float("inf")
    ok = True
    for v in range(1, 8):
        subset = None if v == 7 else list(range(v))
        for assignment in itertools.product((-1, 0, 1), repeat=v):
            spec = SampleSpec(fp=fp, n=1, s=(3,), v=v, noise=noise, subset=subset, errors=assignment)
            dist = outcome_distribution(spec)
            margin = dist.p_correct - v * bound_scale
            worst_margin = min(worst_margin, margin)
            if margin < -1e-12:
                ok = False
            dense = dense_outcome_distribution(spec)
            if np.abs(dense.per_jstar_good - dist.per_jstar_good).max() > 1e-9 or abs(dense.p_bot - dist.p_bot) > 1e-9:
                ok = False
            checked += 1
    rng = make_rng(0x2002)
    for _ in range(100):
        v = int(rng.integers(1, 8))
        spec = draw_sample_spec(fp, 1, (int(rng.integers(7)),), v, noise, rng)
        dist = outcome_distribution(spec)
        if dist.p_correct < v * bound_scale - 1e-12:
            ok = False
        dense = dense_outcome_distribution(spec)
        if np.abs(dense.per_jstar_good - dist.per_jstar_good).max() > 1e-9 or abs(dense.p_bot - dist.p_bot) > 1e-9:
            ok = False
        checked += 1
    conclude(
        2, "single-attempt-lower-bound", ok,
        f"{checked} cases, worst margin over bound {worst_margin:.5f}", started, 60.0,
    )


def test_criterion_3_candidate_test_rates():
    started = time.perf_counter()
    fp = FieldParams(11)
    s = (7,)
    wrong = (8,)
    trials = 100_000
    ok = True
    details = []
    for idx, M in enumerate((1, 2, 3)):
        rng = make_rng(0x3003 + idx)
        classical = drawers(fp, 1, s, 11, NoiseModel.bounded_uniform(1))[1]
        accepts = sum(test_candidate(wrong, classical, 11, M, 1, rng) for _ in range(trials))
        p = (3 / 11) ** M
        sigma = math.sqrt(p * (1 - p) / trials)
        if abs(accepts / trials - p) > 3 * sigma:
            ok = False
        details.append(f"M={M}: {accepts / trials:.5f} vs {p:.5f}")
    rng = make_rng(0x3007)
    classical = drawers(fp, 1, s, 11, NoiseModel.bounded_uniform(1))[1]
    correct_accepts = sum(test_candidate(s, classical, 11, 1, 1, rng) for _ in range(trials))
    if correct_accepts != trials:
        ok = False
    details.append(f"correct: {correct_accepts}/{trials}")
    conclude(3, "candidate-test-rates", ok, "; ".join(details), started, 30.0)


def test_criterion_4_end_to_end_recovery():
    started = time.perf_counter()
    q, n, k = 101, 2, 2
    eta = 0.1
    L = math.ceil(20 * k * math.log(1 / eta))
    M = 1
    fp = FieldParams(q)
    noise = NoiseModel.gaussian(1.0, k)
    runs = 200
    hits = 0
    max_consumed = 0
    for run in range(runs):
        rng = make_rng(0x4000 + run)
        s = tuple(int(x) for x in rng.integers(0, q, size=n))
        draw, inner_classical = drawers(fp, n, s, q**n, noise, errors_as="histogram")
        inner = partial(draw, rng)
        consumed = 0

        def source():
            nonlocal consumed
            consumed += 1
            return inner()

        def classical(generator):
            nonlocal consumed
            consumed += 1
            return inner_classical(generator)

        hits += lwe_learn(L, source, classical, rng, M, k, "analytic").secret == s
        max_consumed = max(max_consumed, consumed)
    rate = hits / runs
    sigma = math.sqrt(0.9 * 0.1 / runs)
    ok = rate >= 0.9 - 3 * sigma and max_consumed <= L * (1 + M)
    conclude(
        4, "repetition-learner-recovery", ok,
        f"rate={rate:.3f} >= {0.9 - 3 * sigma:.3f}, L={L}, max samples {max_consumed} <= {L * (1 + M)}",
        started, 60.0,
    )


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.25])
def test_criterion_5_parity_joint_probability_bound(eta):
    """Per-error-draw lower bound on P(j=s, j*=1) at n=6, delta=0.05.

    KNOWN FAILING at eta in {0.1, 0.25}: the bound requires the signed error
    sum to stay above (1-delta)(1-2*eta)*2^n, a concentration event whose
    probability is asymptotic in n.  At n=6 it holds for only ~69% (eta=0.1)
    and ~57% (eta=0.25) of draws - exact binomial computation - so no
    implementation can reach the required 95% of draws.  The eta=0 case and
    the exact-1/2 clause hold and pass.
    """
    started = time.perf_counter()
    n = 6
    delta = 0.05
    fp = FieldParams(2)
    rng = make_rng(0x5000 + int(eta * 100))
    s = tuple(int(x) for x in rng.integers(0, 2, size=n))
    threshold = 0.5 * (1 - delta) ** 2 * (1 - 2 * eta) ** 2
    draws = 100
    trials = 1_000
    passed = 0
    exact_first = None
    for _ in range(draws):
        spec = draw_sample_spec(fp, n, s, 2**n, NoiseModel.bernoulli(eta), rng)
        post = materialize_dense(spec).apply_qft_all()
        probs = post.probabilities().reshape((2,) * (n + 1))
        if exact_first is None:
            exact_first = float(probs[s + (1,)])
        hits = sum(post.measure_all(rng) == s + (1,) for _ in range(trials))
        if hits / trials >= threshold:
            passed += 1
    ok = passed >= 95
    if eta == 0.0:
        ok = ok and abs(exact_first - 0.5) <= 1e-9
    conclude(
        5, f"parity-bound-eta-{eta}", ok,
        f"{passed}/100 draws meet bound {threshold:.4f}", started, 60.0,
    )


def test_criterion_6_rounding_guarantees():
    started = time.perf_counter()
    fp = FieldParams(257)
    p = 16
    rng = make_rng(0x6006)
    s = (int(rng.integers(1, 257)),)
    spec = lwr_sample_spec(fp, 1, s, p)
    success = outcome_distribution(spec).p_correct
    ok = success >= p / (12 * (257 - 1))
    for q_res, p_res in ((31, 4), (257, 16)):
        bound = lwr_noise_bound(p_res, q_res)
        for x in range(q_res):
            decoded = lwr_decode(lwr_round(x, p_res, q_res), p_res, q_res)
            if centered_abs(decoded - x, q_res) > bound:
                ok = False
    conclude(
        6, "rounding-learner", ok,
        f"per-iteration {success:.4f} >= {p / (12 * 256):.6f}; residuals within ceil(q/2p)+1",
        started, 30.0,
    )


def test_criterion_7_short_solution_recovery():
    started = time.perf_counter()
    q, n, k, L = 7, 2, 1, 3
    fp = FieldParams(q)
    rng = make_rng(0x7007)
    runs = 1_000
    hits = 0
    for _ in range(runs):
        secret = tuple(int(x) % q for x in rng.integers(-k, k + 1, size=n))
        state = sis_sample_state(fp, n, secret)
        hits += sis_learn(k, L, state, rng) == secret
    rate = hits / runs
    floor = 1 - (2 * k + 1) * n / q**L
    sigma = math.sqrt(floor * (1 - floor) / runs)
    ok = rate >= floor - 3 * sigma

    # wrong-candidate screening: zero outcome with probability exactly 1/q
    screened = sis_sample_state(fp, n, (1, 6)).apply_add_multiple(0, n, 1).apply_qft(0)  # j=1 is wrong for v_0=1
    rounds = 10_000
    zeros = 0
    marginal = screened.register_marginal(0)
    for _ in range(rounds):
        zeros += weighted_index(marginal, rng) == 0
    p0 = zeros / rounds
    sigma0 = math.sqrt((1 / q) * (1 - 1 / q) / rounds)
    ok = ok and abs(p0 - 1 / q) <= 3 * sigma0
    conclude(
        7, "short-solution-learner", ok,
        f"recovery {rate:.4f} >= {floor - 3 * sigma:.4f}; wrong-candidate zero rate {p0:.4f} vs {1 / q:.4f}",
        started, 60.0,
    )


def test_criterion_8_ring_global_noise():
    started = time.perf_counter()
    fp = FieldParams(13)
    emb = RingEmbedding.build(fp, 4)
    rng = make_rng(0x8008)
    s = (3, 7)
    trials = 10_000

    noisy_src = ring_sample_stream(emb, s, rng, global_error=True)
    noisy_hits = sum(ring_lwe_global_learn(emb, noisy_src, rng).secret == s for _ in range(trials))

    # noiseless side: the sample state is fixed, so the pipeline is hoisted
    base_post = ring_sample_stream(emb, s, rng, global_error=False)().apply_qft_all()
    q, nn = 13, emb.n
    clean_hits = 0
    for _ in range(trials):
        outcome = base_post.measure_all(rng)
        y = outcome[nn:]
        if all(yi != 0 for yi in y):
            from quditlearn.field import mod_inverse

            phi_s = tuple((-xi * mod_inverse(yi, q)) % q for xi, yi in zip(outcome[:nn], y))
            clean_hits += emb.unembed(phi_s) == s
    p_noisy, p_clean = noisy_hits / trials, clean_hits / trials
    sigma = math.sqrt(2 * p_clean * (1 - p_clean) / trials)
    ok = abs(p_noisy - p_clean) <= 3 * sigma

    elements = [tuple(c) for c in itertools.product(range(13), repeat=2)]
    for a in elements:
        phi_a = emb.embed(a)
        for b in elements:
            expected = tuple(x * y % 13 for x, y in zip(phi_a, emb.embed(b)))
            if emb.embed(naive_poly_mul_mod(a, b, (1, 0, 1), 13)) != expected:  # mod Phi_4 = x^2 + 1
                ok = False
                break
    conclude(
        8, "ring-global-noise", ok,
        f"noisy {p_noisy:.4f} vs noiseless {p_clean:.4f} (3-sigma {3 * sigma:.4f}); embedding homomorphism exhaustive",
        started, 30.0,
    )


def test_criterion_9_engine_equivalence_random_specs():
    started = time.perf_counter()
    rng = make_rng(0x9009)
    shapes = [(2, 3), (2, 5), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)]
    ok = True
    worst_tv = 0.0
    for case in range(50):
        q, n = shapes[int(rng.integers(len(shapes)))]
        assert q ** (n + 1) <= 2**12
        fp = FieldParams(q)
        s = tuple(int(x) for x in rng.integers(0, q, size=n))
        v = int(rng.integers(1, q**n + 1))
        if q == 2:
            noise = NoiseModel.bernoulli(float(rng.choice((0.0, 0.1, 0.3))))
        else:
            kinds = (NoiseModel.none(), NoiseModel.bounded_uniform(1),
                     NoiseModel.gaussian(0.9, 1), NoiseModel.global_shift(NoiseModel.bounded_uniform(1)))
            noise = kinds[int(rng.integers(len(kinds)))]
        spec = draw_sample_spec(fp, n, s, v, noise, rng)
        dist = outcome_distribution(spec)
        dense = dense_outcome_distribution(spec)
        tv = dense.total_variation(dist)
        worst_tv = max(worst_tv, tv)
        if tv > 1e-9 or abs(dist.p_bot - 1 / q) > 1e-9 or abs(dense.p_bot - 1 / q) > 1e-9:
            ok = False
    conclude(9, "engine-equivalence", ok, f"50 specs, worst TV {worst_tv:.2e}", started, 60.0)


def test_criterion_10_verify_command(capsys):
    started = time.perf_counter()
    clean = cli_main(["verify"])
    out_clean = capsys.readouterr().out
    faulted = cli_main(["verify", "--inject-fault"])
    out_fault = capsys.readouterr().out
    fault_line = next(
        (l for l in out_fault.splitlines() if l.startswith("norm-preservation")), ""
    )
    ok = clean == 0 and faulted == 1 and "FAIL" in fault_line and "all checks passed" in out_clean
    conclude(10, "verify-command", ok, f"clean exit {clean}, fault exit {faulted}", started, 60.0)
