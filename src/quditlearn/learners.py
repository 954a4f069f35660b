"""Secret-recovery algorithms built on the dense and analytic sample engines.

``field_bv`` is the core recovery step: QFT on every register, measure, and
read the secret off the outcome when the last register j* is nonzero.  It
accepts either a DenseState (exact small-instance simulation, measured by
``DenseState.measure_qft_all``) or a SampleSpec (analytic engine: one uniform,
``rng.random()`` read lock-free from the bit generator, picks the outcome
category from the law's exact correct mass and abstention probability; a
wrong output is redrawn with ``uniform_vector`` until it is not the secret, so
it is uniform over the non-secret vectors, which preserves the category
probabilities that every consumer relies on).

The remaining learners compose this step with the classical candidate test
and problem-specific reductions (repetition, rounding, coordinate-wise
short-solution search).  They take plain arguments: the repetition count L,
the test-sample count M, the test bound k and the engine, one of ``ENGINES``.
Its test samples come from a per-run oracle ``classical(rng) -> (a, b)``:
the ``classical`` of ``samples.drawers`` for LWE, ``lwr_classical_drawer`` for LWR.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import lru_cache
from operator import mul
from typing import Callable, Union

import numpy as np

from .dense import DenseState, weighted_index
from .field import ParameterError, centered, centered_abs, mod_inverse  # noqa: F401 - traced here by perfbench
from .samples import (
    ENUMERABLE_LIMIT,
    NoiseModel,
    SampleSpec,
    _dots_over_space,
    draw_classical_sample,  # noqa: F401 - perfbench's tracer wraps it in this namespace
    materialize_dense,
    outcome_distribution,
    uniform_vector,
)

SpecSource = Callable[[], SampleSpec]
ClassicalOracle = Callable[[np.random.Generator], tuple[tuple[int, ...], int]]
ENGINES = ("dense", "analytic")


@dataclasses.dataclass(frozen=True, slots=True)  # slots: one is built per attempt
class BvOutcome:
    """Either a recovered secret vector or the abstention outcome."""

    secret: tuple[int, ...] | None = None

    @property
    def is_bot(self) -> bool:
        return self.secret is None


BOT = BvOutcome()


def _require_arguments(L: int, M: int, k: int, engine: str) -> None:
    if L < 1 or M < 0 or k < 0 or engine not in ENGINES:
        raise ParameterError(f"need L >= 1, M >= 0, k >= 0, engine in {ENGINES}; got {L}, {M}, {k}, {engine!r}")


def field_bv(sample: Union[DenseState, SampleSpec], rng: np.random.Generator) -> BvOutcome:
    """One recovery attempt: returns Secret(-(j*)^-1 j mod q) or Bot when j* = 0.

    On a SampleSpec one uniform u picks the category from the law's exact
    correct mass and p_bot; the float per-j* law is never built here.  A wrong
    output then draws vectors until one is not the secret.
    """
    if isinstance(sample, SampleSpec):  # the analytic engine first: its attempts are the cheap, many ones
        dist = outcome_distribution(sample)
        ct = rng.bit_generator.ctypes
        u = ct.next_double(ct.state)  # rng.random(), without the bit generator's lock (as in uniform_vector)
        if u < dist.correct_mass:
            return BvOutcome(sample.s)
        if u < dist.correct_mass + dist.p_bot:
            return BOT
        wrong = uniform_vector(sample.fp.q, sample.n, rng)
        while wrong == sample.s:  # a wrong output is uniform over the q^n - 1 other vectors
            wrong = uniform_vector(sample.fp.q, sample.n, rng)
        return BvOutcome(wrong)
    if isinstance(sample, DenseState):
        q = sample.fp.q
        outcome = sample.measure_qft_all(rng)
        *j, jstar = outcome
        if jstar == 0:
            return BOT
        neg_inv = (-mod_inverse(jstar, q)) % q
        return BvOutcome(tuple((neg_inv * ji) % q for ji in j))
    raise ParameterError(f"field_bv expects a DenseState or SampleSpec, got {type(sample)!r}")


def test_candidate(
    candidate: tuple[int, ...], classical: ClassicalOracle, q: int, M: int, k: int, rng: np.random.Generator
) -> bool:
    """Accept iff M fresh classical samples ``classical(rng)`` all satisfy |b - a.candidate| <= k mod q, q odd."""
    if q % 2 == 0:  # before any draw
        raise ParameterError(f"the candidate test needs an odd modulus, got q = {q}")
    high = q - k
    for _ in range(M):
        a, b = classical(rng)
        if k < (b - sum(map(mul, a, candidate))) % q < high:  # |centered| > k, as q is odd
            return False
    return True


test_candidate.__test__ = False  # library API named by contract, not a pytest case


def lwe_learn(
    L: int, source: SpecSource, classical: ClassicalOracle | None, rng: np.random.Generator,
    M: int = 1, k: int = 0, engine: str = "analytic",
) -> BvOutcome:
    """Up to L recovery attempts, each vetted by the candidate test; first accept wins.

    The test reads M samples of ``classical`` at bound k; M = 0 skips it
    (noiseless usage; ``classical`` may be None, and M >= 1 without it is
    refused before any draw).  Consumes at most L samples of ``source`` and
    L * M of ``classical``.
    """
    _require_arguments(L, M, k, engine)
    if M >= 1 and classical is None:
        raise ParameterError(f"the candidate test reads M = {M} classical samples, so it needs an oracle, got None")
    dense = engine == "dense"
    for _ in range(L):
        spec = source()
        out = field_bv(materialize_dense(spec) if dense else spec, rng)
        if out.secret is None:
            continue
        if M == 0 or test_candidate(out.secret, classical, spec.fp.q, M, k, rng):
            return out
    return BOT


def lpn_learn(L: int, source: SpecSource, rng: np.random.Generator, engine: str = "analytic") -> BvOutcome:
    """Parity learner for q = 2: Hadamard on all qubits, plurality over j* = 1 outcomes of L rounds.

    The candidate test degenerates at q = 2 (any k >= 1 covers the whole
    field), so validation is cross-round agreement: the most frequent
    candidate among rounds with j* = 1 is returned, Bot if there were none.
    """
    _require_arguments(L, 0, 0, engine)
    dense = engine == "dense"
    votes: Counter[tuple[int, ...]] = Counter()
    for _ in range(L):
        spec = source()
        if spec.fp.q != 2:
            raise ParameterError("lpn_learn requires q = 2 samples")
        out = field_bv(materialize_dense(spec) if dense else spec, rng)
        if not out.is_bot:
            votes[out.secret] += 1
    if not votes:
        return BOT
    return BvOutcome(max(votes, key=votes.get))


# --- learning with rounding ---------------------------------------------------

def lwr_round(x: int, p: int, q: int) -> int:
    """floor(p*x/q + 1/2) mod p, the deterministic rounding to Z_p."""
    return ((2 * p * (x % q) + q) // (2 * q)) % p


def lwr_decode(y: int, p: int, q: int) -> int:
    """Map a rounded register value back to Z_q: floor(q*y/p + 1/2) mod q."""
    return ((2 * q * (y % p) + p) // (2 * p)) % q


@lru_cache(maxsize=16)  # read once per trial by lwr_learn
def lwr_noise_bound(p: int, q: int) -> int:
    """Magnitude bound k = ceil(q/(2p)) + 1 on the rounding residual after decoding; needs 2k + 1 <= q."""
    if not 2 <= p < q:
        raise ParameterError(f"rounding modulus must satisfy 2 <= p < q, got p={p}, q={q}")
    k = -(-q // (2 * p)) + 1
    if 2 * k + 1 > q:
        raise ParameterError(f"p={p} is too coarse for q={q}: the rounding residual bound "
                             f"k = ceil(q/(2p)) + 1 = {k} needs 2k + 1 <= q")
    return k


@lru_cache(maxsize=16)
def lwr_decoding_table(q: int, p: int) -> np.ndarray:
    """Read-only int64 ``lwr_decode(lwr_round(x, p, q), p, q)`` for x in Z_q; needs 2 <= p < q <= 2**26."""
    if not 2 <= p < q <= 2**26:  # 2**26: the per-j* law's cap, which LWR's exact success reads; it keeps 2pq in int64
        raise ParameterError(f"the LWR decoding table needs 2 <= p < q <= 2**26, got p={p}, q={q}")
    decoded = lwr_decode(lwr_round(np.arange(q, dtype=np.int64), p, q), p, q)
    decoded.setflags(write=False)
    return decoded


def lwr_sample_spec(fp, n: int, s: tuple[int, ...], p: int) -> SampleSpec:
    """Deterministic sample spec equivalent to |a>|a.s rounded to Z_p>, decoded back to Z_q.

    The decoded register is a.s plus a residual of magnitude at most
    ceil(q/(2p)) + 1, so the returned sample spec carries those residuals
    (read off ``lwr_decoding_table``) as its errors.
    """
    q = fp.q
    noise = NoiseModel.bounded_uniform(lwr_noise_bound(p, q))
    residual = (lwr_decoding_table(q, p) - np.arange(q) + q // 2) % q - q // 2  # centered: q > p >= 2 is odd
    qn = q**n
    s = tuple(s)
    if qn <= ENUMERABLE_LIMIT:
        return SampleSpec(fp=fp, n=n, s=s, v=qn, noise=noise, errors=residual[_dots_over_space(q, s)])
    # a.s is uniform over F_q when s != 0, hitting each residue q^(n-1) times; the
    # counts keep first-occurrence order, which fixes the law's float sums to the bit.
    support = residual if any(s) else residual[:1]
    histogram = {r: c * (qn // support.size) for r, c in Counter(support.tolist()).items()}
    return SampleSpec(fp=fp, n=n, s=s, v=qn, noise=noise, histogram=histogram)


def lwr_classical_drawer(fp, n: int, s: tuple[int, ...], p: int) -> ClassicalOracle:
    """``classical(rng) -> (a, b)``: a = ``uniform_vector(q, n, rng)``, b = ``lwr_decoding_table(q, p)[a.s % q]``.

    Exact at any q^n; below ``ENUMERABLE_LIMIT`` it draws as ``draw_classical_sample`` on ``lwr_sample_spec``.
    """
    q, s = fp.q, tuple(s)
    decoded = lwr_decoding_table(q, p).tolist()

    def classical(rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
        a = uniform_vector(q, n, rng)
        return a, decoded[sum(map(mul, a, s)) % q]

    return classical


def lwr_learn(
    p: int, q: int, source: SpecSource, classical: ClassicalOracle | None, rng: np.random.Generator, L: int,
    M: int = 1, engine: str = "analytic",
) -> BvOutcome:
    """Rounding learner: ``lwe_learn`` at the test bound k = ceil(q/(2p)) + 1 of the decoding residual."""
    return lwe_learn(L, source, classical, rng, M, lwr_noise_bound(p, q), engine)


# --- short integer solution ----------------------------------------------------

def sis_sample_state(fp, n: int, secret: tuple[int, ...]) -> DenseState:
    """The traced sample (1/sqrt(q^n)) sum_a |a>|a.secret mod q> on n+1 registers.

    It is ``materialize_dense`` of the noiseless spec on all of F_q^n with
    secret mod q.  The sample is fixed for a run: its amplitudes are
    read-only, and every operation on it returns a fresh state.
    """
    if len(secret) != n:
        raise ParameterError(f"secret must be a length-{n} vector")
    qn, s = fp.q**n, tuple(x % fp.q for x in secret)
    return materialize_dense(SampleSpec(fp, n, s, qn, NoiseModel.none(), histogram={0: qn}))


def sis_learn(
    k: int,
    L: int,
    state: DenseState,
    rng: np.random.Generator,
) -> tuple[int, ...] | None:
    """Coordinate-wise search for the short secret of a traced sample.

    For each coordinate i, candidate j in [-k, k] adds j*a_i to the last
    register of the sample and QFTs register i, once; register i's marginal
    of that screened state is read once, and up to L rounds, each standing
    for a fresh copy, draw their outcome from it.  The first candidate whose
    L outcomes are all zero fixes coordinate i as -j; None is returned if
    some coordinate rejects every candidate.
    """
    if k < 0 or L < 1:
        raise ParameterError("need k >= 0 and L >= 1")
    q = state.fp.q
    n = state.num_registers - 1
    recovered = []
    for i in range(n):
        accepted = None
        for j in range(-k, k + 1):
            marginal = state.apply_add_multiple(i, n, j % q).apply_qft(i).register_marginal(i)
            if all(weighted_index(marginal, rng) == 0 for _ in range(L)):
                accepted = j
                break
        if accepted is None:
            return None
        recovered.append((-accepted) % q)
    return tuple(recovered)
