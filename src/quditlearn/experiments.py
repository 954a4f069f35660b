"""Monte Carlo harness: seeded experiment runs, sweeps, CSV reports.

A trial is one full learner run for the configured problem; the empirical
rate is the fraction of trials recovering the true secret.  Each trial gets
its own counter-based RNG stream keyed by seed XOR trial-index, so reports
are bit-identical regardless of how trials are partitioned or interleaved.
``draw_secret`` and ``build_trial`` are the one table of the five problems;
the ``learn`` command runs a single trial through them.

Where a closed form exists, the report also carries the exact per-iteration
success probability and the closed-constant and gamma-optimized lower bounds:

  problem      exact_probability
  lwe, lpn     expected single-attempt success over fresh error draws
  lwr          deterministic single-attempt success of the rounding spec
  sis          product over coordinates of (1 - q^-L)^(wrong candidates tried first)
  ring-global  ((q-1)/q)^n

Reports serialize to CSV with the fixed header ``CSV_HEADER``; the wall-time
column is execution-dependent and excluded from the canonical (reproducible)
serialization used by the determinism tests.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
import time
from typing import Callable

import numpy as np

from .dense import MAX_AMPLITUDES
from .field import FieldParams, ParameterError
from .learners import (
    LearnerConfig,
    lpn_learn,
    lwe_learn,
    lwr_learn,
    lwr_sample_spec,
    sis_learn,
    sis_sample_stream,
)
from .ring import RingEmbedding, ring_lwe_global_learn, ring_sample_stream
from .samples import (
    ENUMERABLE_LIMIT,
    GAMMA_STAR,
    NoiseModel,
    outcome_distribution,
    require_drawable,
    sample_stream,
    theoretical_bound,
    uniform_vector,
)

CSV_COLUMNS = (
    "problem", "q", "n", "v", "k", "noise", "engine", "L", "M", "p",
    "trials", "seed", "empirical_rate", "wilson_lo", "wilson_hi",
    "exact_prob", "bound_paper", "bound_optimized", "wall_time_ms",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

PROBLEMS = ("lwe", "lpn", "lwr", "sis", "ring-global")

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval; robust at small success probabilities."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)  # exact at the edges
    return lo, hi


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: problem, instance parameters, trial count, seed."""

    problem: str
    q: int
    n: int
    trials: int
    seed: int
    engine: str = "analytic"
    noise: NoiseModel = NoiseModel.none()
    v: int | None = None
    s: tuple[int, ...] | None = None  # fixed secret; None draws one from the seed
    L: int = 1
    M: int = 0
    k: int | None = None  # candidate-test / SIS coefficient bound; defaults to the noise bound
    p: int | None = None  # LWR rounding modulus
    m: int | None = None  # ring conductor

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise ParameterError(f"unknown problem {self.problem!r}")
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:  # a Philox key word; a wider seed would alias a narrower one
            raise ParameterError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.engine not in ("dense", "analytic"):
            raise ParameterError(f"unknown engine {self.engine!r}")
        if self.v is not None and self.v < 1:
            raise ParameterError(f"v must be >= 1, got {self.v}")
        if self.k is not None and self.k < 0:
            raise ParameterError(f"k must be >= 0, got {self.k}")

    @property
    def effective_v(self) -> int:
        return self.q**self.n if self.v is None else self.v

    @property
    def effective_k(self) -> int:
        return self.noise.magnitude_bound() if self.k is None else self.k

    @property
    def effective_engine(self) -> str:
        """The engine that runs: sis and ring-global have only the dense one."""
        return "dense" if self.problem in ("sis", "ring-global") else self.engine


@dataclasses.dataclass
class ExperimentReport:
    """Aggregated result of one experiment configuration."""

    config: ExperimentConfig
    successes: int
    trials: int
    empirical_rate: float
    wilson_lo: float
    wilson_hi: float
    exact_probability: float | None
    bound_paper: float | None
    bound_optimized: float | None
    wall_time_ms: float
    error: str | None = None

    def csv_row(self) -> list[str]:
        c = self.config
        fmt = lambda x: "" if x is None else repr(float(x))
        return [
            c.problem, str(c.q), str(c.n), str(c.effective_v), str(c.effective_k),
            str(c.noise), c.effective_engine, str(c.L), str(c.M),
            "" if c.p is None else str(c.p), str(self.trials), str(c.seed),
            repr(self.empirical_rate), repr(self.wilson_lo), repr(self.wilson_hi),
            fmt(self.exact_probability), fmt(self.bound_paper), fmt(self.bound_optimized),
            repr(self.wall_time_ms),
        ]

    def canonical_text(self) -> str:
        """Deterministic serialization: every field except the wall clock."""
        row = self.csv_row()
        lines = [f"{name}: {value}" for name, value in zip(CSV_COLUMNS, row) if name != "wall_time_ms"]
        if self.error is not None:
            lines.append(f"error: {self.error}")
        return "\n".join(lines)

    def to_text(self) -> str:
        return self.canonical_text() + f"\nwall_time_ms: {self.wall_time_ms:.3f}"


def _rekey(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """``rng`` (over a Philox) restarted on the stream of Philox(key=seed XOR index).

    The full state is reset: key, zero counter, empty output buffer and no
    buffered 32-bit half-word, so the stream is exactly that of a fresh
    ``Generator(Philox(key=...))``, without the OS entropy a fresh build pulls.
    """
    key = np.array([seed ^ index, 0], dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _expected_iteration_success(q: int, n: int, v: int, noise: NoiseModel) -> float:
    """E over error draws of the exact single-attempt success probability."""
    values, weights = noise.distribution(q)
    if noise.is_global or noise.kind == "none":
        expected_sq = float(v) * v
    else:
        sp2 = math.fsum(w * w for w in weights)
        expected_sq = v * v * sp2 + v * (1.0 - sp2)
    return (q * expected_sq - float(v) * v) / (float(v) * float(q) ** (n + 1))


def draw_secret(config: ExperimentConfig, rng: np.random.Generator) -> tuple[int, ...]:
    """The configured secret, or a fresh one from rng (coefficients in [-k, k] for sis)."""
    if config.s is not None:
        return tuple(x % config.q for x in config.s)
    if config.problem == "sis":
        k = config.effective_k
        return tuple(int(x) % config.q for x in rng.integers(-k, k + 1, size=config.n))
    return uniform_vector(config.q, config.n, rng)


def _sis_wrong_before_correct(secret: tuple[int, ...], k: int, q: int) -> list[int]:
    counts = []
    for coord in secret:
        target = (-coord) % q
        tried = 0
        for j in range(-k, k + 1):
            if j % q == target:
                break
            tried += 1
        counts.append(tried)
    return counts


def build_trial(config: ExperimentConfig, secret: tuple[int, ...]) -> tuple[
    Callable[[np.random.Generator], tuple[int, ...] | None], float | None, float | None, float | None
]:
    """The problem table: a trial closure plus (exact, bound_paper, bound_optimized).

    The closure runs one learner on fresh samples from its rng and returns
    the recovered secret, or None on BOT/FAIL.
    """
    fp = FieldParams(config.q)
    q, n, v = config.q, config.n, config.effective_v
    k = config.effective_k
    if config.problem in ("lwr", "sis", "ring-global") and config.v not in (None, q**n):
        raise ParameterError(
            f"{config.problem} always uses all q^n = {q**n} elements, so v = {config.v} cannot run"
        )
    registers = 2 * config.n if config.problem == "ring-global" else config.n + 1
    if config.effective_engine == "dense" and q**registers > MAX_AMPLITUDES:
        raise ParameterError(
            f"dense engine infeasible: q^{registers} = {q**registers} exceeds the 2**22 cap"
        )

    if config.problem in ("lwe", "lpn"):
        require_drawable(v, config.noise)
        if v * q ** (n + 1) > sys.float_info.max:  # the success law divides by v q^(n+1) in floats
            raise ParameterError(
                f"{config.problem} needs v * q^(n+1) <= sys.float_info.max = {sys.float_info.max:.6g}"
            )
        errors_as = "histogram" if config.engine == "analytic" else "map"
        exact = _expected_iteration_success(q, n, v, config.noise)
        if config.problem == "lpn":
            if q != 2:
                raise ParameterError("lpn requires q = 2")
            if config.noise.kind != "bernoulli":
                raise ParameterError("lpn takes bernoulli noise only")
            bound_paper = 0.5 * (1.0 - 2.0 * config.noise.eta) ** 2
            bound_opt = None

            def run(rng: np.random.Generator) -> tuple[int, ...] | None:
                src = sample_stream(fp, n, secret, v, config.noise, rng, errors_as=errors_as)
                return lpn_learn(src, config.L, rng, engine=config.engine).secret

        else:
            if k >= 1:
                bound_paper = theoretical_bound(v, k, q, n, "paper")
                bound_opt = theoretical_bound(v, k, q, n, "optimized")
            else:
                bound_paper = bound_opt = exact
            learner_cfg = LearnerConfig(L=config.L, M=config.M, k=k, engine=config.engine)

            def run(rng: np.random.Generator) -> tuple[int, ...] | None:
                src = sample_stream(fp, n, secret, v, config.noise, rng, errors_as=errors_as)
                return lwe_learn(learner_cfg, src, rng).secret

        return run, exact, bound_paper, bound_opt

    if config.problem in ("lwr", "sis") and config.noise.kind != "none":
        raise ParameterError(f"{config.problem} reads no noise model, so it takes noise none only")
    if config.problem == "lwr":
        if config.p is None:
            raise ParameterError("lwr needs the rounding modulus p")
        if config.M >= 1 and q**n > ENUMERABLE_LIMIT:  # a residual histogram cannot tie b to a.s
            raise ParameterError(f"lwr with M >= 1 needs q^n <= ENUMERABLE_LIMIT = {ENUMERABLE_LIMIT}, got {q**n}")
        spec = lwr_sample_spec(fp, n, secret, config.p)
        exact = outcome_distribution(spec).p_correct  # deterministic spec: exact success
        bound_paper = config.p / (12.0 * (q - 1))
        bound_opt = GAMMA_STAR * v / ((q / (2.0 * config.p)) * q**n)
        learner_cfg = LearnerConfig(L=config.L, M=config.M, engine=config.engine)

        def run(rng: np.random.Generator) -> tuple[int, ...] | None:
            return lwr_learn(config.p, learner_cfg, lambda: spec, rng).secret

        return run, exact, bound_paper, bound_opt

    if config.problem == "sis":
        source = sis_sample_stream(fp, n, secret)
        wrong = _sis_wrong_before_correct(secret, k, q)
        exact = math.prod((1.0 - q**-config.L) ** w for w in wrong)
        bound_paper = 1.0 - (2 * k + 1) * n / float(q) ** config.L

        def run(rng: np.random.Generator) -> tuple[int, ...] | None:
            return sis_learn(k, config.L, source, rng)

        return run, exact, bound_paper, None

    # ring-global
    if config.m is None:
        raise ParameterError("ring-global needs the conductor m")
    if config.noise.kind not in ("none", "global-shift"):
        raise ParameterError("ring-global takes noise none or global (no per-element ring noise)")
    emb = RingEmbedding.build(fp, config.m)
    if config.n != emb.n:
        raise ParameterError(f"ring dimension is phi({config.m}) = {emb.n}, got n = {config.n}")
    noise_mode = "none" if config.noise.kind == "none" else "uniform-global"
    exact = ((q - 1) / q) ** emb.n

    def run(rng: np.random.Generator) -> tuple[int, ...] | None:
        src = ring_sample_stream(emb, secret, rng, noise=noise_mode)
        return ring_lwe_global_learn(emb, src, rng).secret

    return run, exact, None, None


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured trials; deterministic for a fixed config and seed."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox())  # re-keyed before every use
    secret = draw_secret(config, _rekey(rng, config.seed, 2**63))
    run, exact, bound_paper, bound_opt = build_trial(config, secret)
    successes = sum(run(_rekey(rng, config.seed, i)) == secret for i in range(config.trials))
    lo, hi = wilson_interval(successes, config.trials)
    return ExperimentReport(
        config=config,
        successes=successes,
        trials=config.trials,
        empirical_rate=successes / config.trials,
        wilson_lo=lo,
        wilson_hi=hi,
        exact_probability=exact,
        bound_paper=bound_paper,
        bound_optimized=bound_opt,
        wall_time_ms=(time.perf_counter() - start) * 1e3,
    )


def sweep(configs: list[ExperimentConfig], csv_path: str | None = None) -> list[ExperimentReport]:
    """One report per config, in input order; per-row failures recorded, run continues."""
    if not configs:
        raise ParameterError("sweep needs at least one configuration")
    reports = []
    for config in configs:
        try:
            reports.append(run_experiment(config))
        except Exception as exc:  # noqa: BLE001 - failures become report rows
            reports.append(
                ExperimentReport(
                    config=config, successes=0, trials=0, empirical_rate=float("nan"),
                    wilson_lo=float("nan"), wilson_hi=float("nan"), exact_probability=None,
                    bound_paper=None, bound_optimized=None, wall_time_ms=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    if csv_path is not None:
        write_csv(reports, csv_path)
    return reports


def write_csv(reports: list[ExperimentReport], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            if report.error is None:
                writer.writerow(report.csv_row())
            else:
                row = report.csv_row()
                writer.writerow(row[:12] + [""] * 7)
