"""Built-in invariant suite backing the ``verify`` CLI subcommand.

Runs the cross-engine and structural invariants on fixed small instances,
all of them every time, and reports one pass/fail line per check.
``inject_fault`` perturbs one amplitude inside the norm-preservation check —
a negative control that must turn exactly that check red.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

import numpy as np

from .dense import DenseState, qft_matrix
from .field import FieldParams, centered_abs, mod_inverse, roots_of_unity
from .learners import sis_sample_state, test_candidate
from .samples import (
    NoiseModel,
    SampleSpec,
    dense_outcome_distribution,
    draw_sample_spec,
    drawers,
    outcome_distribution,
    theoretical_bound,
    uniform_vector,
)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=0x5EED0000 + tag))


def _check_field_arithmetic() -> CheckResult:
    for q in (3, 7, 13, 101):
        half = (q - 1) // 2
        for a in range(q):
            if centered_abs(a, q) > half or centered_abs(a, q) != centered_abs((q - a) % q, q):
                return CheckResult("field-centered-representative", False, f"q={q}, a={a}")
        inverses = {mod_inverse(a, q) for a in range(1, q)}
        if inverses != set(range(1, q)):
            return CheckResult("field-centered-representative", False, f"inverse not a bijection at q={q}")
        for a in (1, q - 1):
            if mod_inverse(a, q) != a:
                return CheckResult("field-centered-representative", False, f"{a} not self-inverse at q={q}")
    return CheckResult("field-centered-representative", True, "q in {3,7,13,101} exhaustive")


def _check_omega_powers() -> CheckResult:
    rng = _rng(1)
    for q in (3, 13, 101, 65537):
        roots = roots_of_unity(q)
        for _ in range(50):
            i, j = (int(x) for x in rng.integers(-(2**62), 2**62, size=2))
            if abs(roots[i % q] * roots[j % q] - roots[(i + j) % q]) > 1e-9:
                return CheckResult("omega-power-additivity", False, f"q={q}, i={i}, j={j}")
    return CheckResult("omega-power-additivity", True, "random exponents up to 2^62")


def _check_qft_unitarity() -> CheckResult:
    qs = [2, 3, 5, 7, 11, 31]
    for q in qs:
        f = qft_matrix(q)
        if np.max(np.abs(f.conj().T @ f - np.eye(q))) > 1e-9:
            return CheckResult("qft-unitarity", False, f"q={q}")
    return CheckResult("qft-unitarity", True, f"q in {qs}")


def _check_norm_preservation(inject_fault: bool = False) -> CheckResult:
    rng = _rng(2)
    for q, n in [(3, 2), (5, 2), (7, 1), (13, 1)]:
        amps = rng.normal(size=q ** (n + 1)) + 1j * rng.normal(size=q ** (n + 1))
        state = DenseState(FieldParams(q), n + 1, amps / np.linalg.norm(amps))
        for op in range(n + 1):
            state = state.apply_qft(op)
        state = state.apply_add_multiple(0, n, int(rng.integers(q)))
        amplitudes = state.amps.copy()
        if inject_fault:
            amplitudes[0] += 1e-3  # negative-control hook: corrupt one amplitude
        norm2 = float(np.vdot(amplitudes, amplitudes).real)
        if abs(norm2 - 1.0) > 1e-9:
            return CheckResult("norm-preservation", False, f"q={q}, n={n}: sum|amp|^2 = {norm2}")
    return CheckResult("norm-preservation", True, "QFT and add-multiple pipelines")


def _check_add_multiple_permutation() -> CheckResult:
    rng = _rng(3)
    for q, n in [(3, 2), (7, 1), (11, 1)]:
        amps = rng.normal(size=q ** (n + 1)) + 1j * rng.normal(size=q ** (n + 1))
        state = DenseState(FieldParams(q), n + 1, amps / np.linalg.norm(amps))
        shifted = state.apply_add_multiple(0, n, int(rng.integers(1, q)))
        before = np.sort(state.probabilities())
        after = np.sort(shifted.probabilities())
        if not np.array_equal(before, after):
            return CheckResult("add-multiple-permutation", False, f"q={q}, n={n}")
    return CheckResult("add-multiple-permutation", True, "|amp|^2 multiset exactly preserved")


def _check_noiseless_success() -> CheckResult:
    for q, n in [(3, 2), (5, 2), (7, 3)]:
        fp = FieldParams(q)
        s = tuple(_rng(4).integers(0, q, size=n).tolist())
        spec = SampleSpec(fp=fp, n=n, s=s, v=q**n, noise=NoiseModel.none(), histogram={0: q**n})
        dense = dense_outcome_distribution(spec)
        if abs(dense.p_correct - (q - 1) / q) > 1e-9 or abs(dense.p_wrong) > 1e-9:
            return CheckResult("noiseless-success-rate", False, f"(q,n)=({q},{n})")
    return CheckResult("noiseless-success-rate", True, "dense exact (q-1)/q")


def _check_engine_equivalence() -> CheckResult:
    rng = _rng(5)
    for q, n in [(3, 2), (5, 1), (7, 1), (11, 1), (13, 1), (3, 4), (5, 2)]:
        fp = FieldParams(q)
        k = min(1, (q - 1) // 2)
        noise = NoiseModel.bounded_uniform(k) if k else NoiseModel.none()
        v = int(rng.integers(1, q**n + 1))
        spec = draw_sample_spec(fp, n, uniform_vector(q, n, rng), v, noise, rng)
        analytic, dense = outcome_distribution(spec), dense_outcome_distribution(spec)
        tv = dense.total_variation(analytic)
        if tv > 1e-9:
            return CheckResult("engine-equivalence", False, f"(q,n)=({q},{n}), TV={tv:.2e}")
        if abs(analytic.p_bot - 1.0 / q) > 1e-12 or abs(dense.p_bot - 1.0 / q) > 1e-9:
            return CheckResult("engine-equivalence", False, f"(q,n)=({q},{n}) abstention != 1/q")
    return CheckResult("engine-equivalence", True, "analytic vs dense TV <= 1e-9, bot = 1/q")


def _check_error_permutation_invariance() -> CheckResult:
    rng = _rng(6)
    for q, n in [(7, 1), (5, 2)]:
        fp = FieldParams(q)
        s = uniform_vector(q, n, rng)
        spec = draw_sample_spec(fp, n, s, q**n, NoiseModel.bounded_uniform(1), rng)
        base = outcome_distribution(spec)
        values = spec.errors.copy()
        rng.shuffle(values)
        shuffled = SampleSpec(
            fp=fp, n=n, s=s, v=spec.v, noise=spec.noise, subset=spec.subset, errors=values,
        )
        other = outcome_distribution(shuffled)
        if np.abs(base.per_jstar_good - other.per_jstar_good).max() > 1e-12:
            return CheckResult("error-permutation-invariance", False, f"(q,n)=({q},{n})")
    return CheckResult("error-permutation-invariance", True, "distribution depends on counts only")


def _check_attempt_lower_bound() -> CheckResult:
    fp = FieldParams(7)
    for assignment in itertools.product((-1, 0, 1), repeat=7):
        spec = SampleSpec(
            fp=fp, n=1, s=(3,), v=7, noise=NoiseModel.bounded_uniform(1), errors=assignment
        )
        p = outcome_distribution(spec).p_correct
        if p < theoretical_bound(7, 1, 7, 1, "paper") - 1e-12:
            return CheckResult("attempt-lower-bound", False, f"errors={assignment}: p={p}")
    return CheckResult("attempt-lower-bound", True, "all 3^7 assignments at q=7, n=1, k=1")


def _check_test_candidate_completeness() -> CheckResult:
    rng = _rng(7)
    fp = FieldParams(11)
    s = (4, 9)
    classical = drawers(fp, 2, s, 11**2, NoiseModel.bounded_uniform(1))[1]
    for _ in range(200):
        if not test_candidate(s, classical, 11, 2, 1, rng):
            return CheckResult("test-candidate-completeness", False, "true secret rejected")
    return CheckResult("test-candidate-completeness", True, "true secret always accepted")


def _check_sis_wrong_survival() -> CheckResult:
    fp = FieldParams(7)
    secret = (1, 6)
    state = sis_sample_state(fp, 2, secret)
    # candidate j != -v_0: the screened register must be exactly uniform.
    marginal = state.apply_add_multiple(0, 2, 1).apply_qft(0).register_marginal(0)
    if abs(marginal[0] - 1.0 / 7) > 1e-9:
        return CheckResult("sis-wrong-survival", False, f"P(0) = {marginal[0]}")
    good = state.apply_add_multiple(0, 2, (-secret[0]) % 7).apply_qft(0).register_marginal(0)
    if abs(good[0] - 1.0) > 1e-9:
        return CheckResult("sis-wrong-survival", False, f"correct candidate P(0) = {good[0]}")
    return CheckResult("sis-wrong-survival", True, "wrong 1/q, correct 1 (dense exact)")


_CHECKS: list[Callable[[], CheckResult]] = [
    _check_field_arithmetic,
    _check_omega_powers,
    _check_qft_unitarity,
    _check_norm_preservation,
    _check_add_multiple_permutation,
    _check_noiseless_success,
    _check_engine_equivalence,
    _check_error_permutation_invariance,
    _check_attempt_lower_bound,
    _check_test_candidate_completeness,
    _check_sis_wrong_survival,
]


def run_verification(inject_fault: bool = False) -> list[CheckResult]:
    return [
        check(inject_fault=inject_fault) if check is _check_norm_preservation else check()
        for check in _CHECKS
    ]


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{r.name.ljust(width)}  {'PASS' if r.passed else 'FAIL'}  {r.detail}" for r in results
    ]
    status = "all checks passed" if all(r.passed for r in results) else "FAILURES present"
    return "\n".join(lines + [status])
