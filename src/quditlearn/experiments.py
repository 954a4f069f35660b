"""Monte Carlo harness: seeded experiment runs, sweeps, CSV reports.

A trial is one full learner run for the configured problem; the empirical
rate is the fraction of trials recovering the true secret.  Each trial gets
its own counter-based RNG stream keyed by seed XOR trial-index, so reports
are bit-identical regardless of how trials are partitioned or interleaved.
``build_trial`` is the one table of the five problems: it draws the run's
secret into a ``Trial`` record, and the ``learn`` command runs one trial of it.
``ExperimentConfig`` decides the engine: sis and ring-global have only the dense one.

Where a closed form exists, the report also carries the exact per-iteration
success probability and the closed-constant and gamma-optimized lower bounds:

  problem      exact_probability
  lwe, lpn     expected single-attempt success over fresh error draws
  lwr          deterministic single-attempt success of the rounding spec
  sis          product over coordinates of (1 - q^-L)^(wrong candidates tried first)
  ring-global  ((q-1)/q)^n

Reports serialize to CSV with the fixed header ``CSV_HEADER``; the wall-time
column is execution-dependent and excluded from the canonical (reproducible)
serialization used by the determinism tests.  The last column, ``error``, is
empty on a row that ran and holds the reason on a row that failed; the
canonical text gives that reason on its own last line.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import sys
import time
from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

from .dense import MAX_AMPLITUDES
from .field import FieldParams, ParameterError, is_integer
from .learners import (
    ENGINES,
    lpn_learn,
    lwe_learn,
    lwr_classical_drawer,
    lwr_learn,
    lwr_sample_spec,
    sis_learn,
    sis_sample_state,
)
from .ring import RingEmbedding, ring_dimension, ring_lwe_global_learn, ring_sample_stream
from .samples import (
    GAMMA_STAR,
    NoiseModel,
    drawers,
    outcome_distribution,
    theoretical_bound,
    uniform_vector,
)

CSV_COLUMNS = (
    "problem", "q", "n", "v", "k", "noise", "engine", "L", "M", "p",
    "trials", "seed", "empirical_rate", "wilson_lo", "wilson_hi",
    "exact_prob", "bound_paper", "bound_optimized", "wall_time_ms", "error",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

PROBLEMS = ("lwe", "lpn", "lwr", "sis", "ring-global")

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; robust at small success probabilities."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    phat, z = successes / trials, _Z95
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
    engine: str | None = None  # None: dense for sis and ring-global, which have no other, else analytic
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
        if self.q > 1 and self.n * math.log10(self.q) > sys.int_info.default_max_str_digits:
            # a report prints v = q^n in full, even on a failed sweep row
            raise ParameterError(
                f"q^n = {self.q}^{self.n} has more than {sys.int_info.default_max_str_digits} digits"
            )
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:  # a Philox key word; a wider seed would alias a narrower one
            raise ParameterError(f"seed must lie in [0, 2**64), got {self.seed}")
        dense_only = self.problem in ("sis", "ring-global")
        if self.engine is None:
            object.__setattr__(self, "engine", "dense" if dense_only else "analytic")
        if self.engine not in ENGINES:
            raise ParameterError(f"unknown engine {self.engine!r}")
        if dense_only and self.engine != "dense":
            raise ParameterError(f"{self.problem} has only the dense engine, so engine = {self.engine} cannot run")
        if self.v is not None and self.v < 1:
            raise ParameterError(f"v must be >= 1, got {self.v}")
        if self.k is not None and self.k < 0:
            raise ParameterError(f"k must be >= 0, got {self.k}")
        if self.L < 1:
            raise ParameterError(f"L must be >= 1, got {self.L}")
        if self.M < 0:
            raise ParameterError(f"M must be >= 0, got {self.M}")
        for name, reader in (("p", "lwr"), ("m", "ring-global")):
            value = getattr(self, name)
            if value is not None and self.problem != reader:
                raise ParameterError(f"only {reader} reads {name}, so {self.problem} cannot take {name} = {value}")
        if self.m is not None and self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.s is not None:
            if len(self.s) != self.n or not all(map(is_integer, self.s)):
                raise ParameterError(f"s must be n = {self.n} integers, got s = {self.s!r}")
            q, k = self.q, self.effective_k
            if self.problem == "sis" and q > 1 and any(min(x % q, -x % q) > k for x in self.s):
                raise ParameterError(f"sis needs every s coefficient in [-{k}, {k}] mod {q}, got s = {self.s!r}")

    @property
    def effective_v(self) -> int:
        return self.q**self.n if self.v is None else self.v

    @property
    def effective_k(self) -> int:
        return self.noise.magnitude_bound() if self.k is None else self.k


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
            str(c.noise), c.engine, str(c.L), str(c.M),
            "" if c.p is None else str(c.p), str(self.trials), str(c.seed),
            repr(self.empirical_rate), repr(self.wilson_lo), repr(self.wilson_hi),
            fmt(self.exact_probability), fmt(self.bound_paper), fmt(self.bound_optimized),
            repr(self.wall_time_ms), "" if self.error is None else self.error,
        ]

    def canonical_text(self) -> str:
        """Deterministic serialization: every field except the wall clock, and the error last if the run failed."""
        row = self.csv_row()
        lines = [f"{name}: {value}" for name, value in zip(CSV_COLUMNS, row) if name not in ("wall_time_ms", "error")]
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
    rng.bit_generator.state = {  # tuples, not fresh arrays: the setter converts either
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed ^ index, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _expected_iteration_success(q: int, n: int, v: int, noise: NoiseModel) -> float:
    """E over error draws of the exact single-attempt success probability."""
    values, weights = noise.distribution(q)
    if noise.is_shared:
        expected_sq = float(v) * v
    else:
        sp2 = math.fsum(w * w for w in weights)
        expected_sq = v * v * sp2 + v * (1.0 - sp2)
    return (q * expected_sq - float(v) * v) / (float(v) * float(q) ** (n + 1))


class Trial(NamedTuple):
    """A run: its secret, ``run(rng)`` (the recovered secret, or None on BOT/FAIL) and the report's closed forms."""

    secret: tuple[int, ...]
    run: Callable[[np.random.Generator], tuple[int, ...] | None]
    exact: float | None
    bound_paper: float | None = None
    bound_optimized: float | None = None


def build_trial(config: ExperimentConfig, rng: np.random.Generator) -> Trial:
    """The problem table: the run's ``Trial``; its secret, fixed or drawn from rng ([-k, k] for sis), comes first."""
    fp = FieldParams(config.q)  # raises ParameterError for a bad q before any reduction or draw mod q
    q, n, v = config.q, config.n, config.effective_v
    k = config.effective_k
    if config.s is not None:
        secret = tuple(x % q for x in config.s)
    elif config.problem == "sis":
        if k > np.iinfo(np.int64).max:  # rng.integers draws int64
            raise ParameterError(f"k must be <= 2**63 - 1 for sis, whose secret is drawn from [-k, k]; got k = {k}")
        secret = tuple(int(x) % q for x in rng.integers(-k, k + 1, size=n))
    else:
        secret = uniform_vector(q, n, rng)
    if config.problem in ("lwr", "sis", "ring-global") and config.v not in (None, q**n):
        raise ParameterError(f"{config.problem} always uses all q^n = {q**n} elements, so v = {config.v} cannot run")
    if config.problem == "ring-global":  # a wrong n is named before the state size it gives
        if config.m is None:
            raise ParameterError("ring-global needs the conductor m")
        if not config.noise.is_shared:
            raise ParameterError("ring-global takes noise none or global (no per-element ring noise)")
        config.noise.validate_for(q)
        ring_n = ring_dimension(fp, config.m)  # from m alone: the embedding is built after the cap check
        if config.n != ring_n:
            raise ParameterError(f"ring dimension is phi({config.m}) = {ring_n}, got n = {config.n}")
    registers = 2 * config.n if config.problem == "ring-global" else config.n + 1
    if config.engine == "dense" and q**registers > MAX_AMPLITUDES:
        raise ParameterError(f"dense engine infeasible: {q}^{registers} amplitudes exceed the 2**22 cap")
    if config.problem in ("lwe", "lpn"):  # one checked sample source per run: specs and lwe's test samples
        errors_as = "histogram" if config.engine == "analytic" else "map"
        draw, classical = drawers(fp, n, secret, v, config.noise, errors_as)
    if config.problem in ("lwe", "lpn", "lwr") and v * q ** (n + 1) > sys.float_info.max:
        # the success laws divide by v q^(n+1) in floats
        raise ParameterError(f"{config.problem} needs v * q^(n+1) <= sys.float_info.max = {sys.float_info.max:.6g}")

    if config.problem in ("lwe", "lpn"):
        exact = _expected_iteration_success(q, n, v, config.noise)
        if config.problem == "lpn":
            if q != 2:
                raise ParameterError("lpn requires q = 2")
            if config.noise.kind != "bernoulli":
                raise ParameterError("lpn takes bernoulli noise only")
            bound_paper = 0.5 * (1.0 - 2.0 * config.noise.eta) ** 2
            bound_opt = None

            def run(rng: np.random.Generator) -> tuple[int, ...] | None:
                return lpn_learn(config.L, partial(draw, rng), rng, config.engine).secret

        else:
            if q == 2 and config.M >= 1:  # centered representatives exist for odd q only
                raise ParameterError("the lwe candidate test needs an odd q; run lpn, or lwe with --M 0")
            if k >= 1:
                bound_paper = theoretical_bound(v, k, q, n, "paper")
                bound_opt = theoretical_bound(v, k, q, n, "optimized")
            else:
                bound_paper = bound_opt = exact

            def run(rng: np.random.Generator) -> tuple[int, ...] | None:
                return lwe_learn(config.L, partial(draw, rng), classical, rng, config.M, k, config.engine).secret

        return Trial(secret, run, exact, bound_paper, bound_opt)

    if config.problem in ("lwr", "sis") and config.noise.kind != "none":
        raise ParameterError(f"{config.problem} reads no noise model, so it takes noise none only")
    if config.problem == "lwr":
        if config.p is None:
            raise ParameterError("lwr needs the rounding modulus p")
        spec = lwr_sample_spec(fp, n, secret, config.p)
        classical = lwr_classical_drawer(fp, n, secret, config.p)
        exact = outcome_distribution(spec).p_correct  # deterministic spec: exact success
        bound_paper = config.p / (12.0 * (q - 1))
        bound_opt = GAMMA_STAR * v / ((q / (2.0 * config.p)) * q**n)

        p, L, M, engine = config.p, config.L, config.M, config.engine
        source = repeat(spec).__next__  # every attempt reads the one spec

        def run(rng: np.random.Generator) -> tuple[int, ...] | None:
            return lwr_learn(p, q, source, classical, rng, L, M, engine).secret

        return Trial(secret, run, exact, bound_paper, bound_opt)

    if config.problem == "sis":
        state = sis_sample_state(fp, n, secret)
        # a short coordinate x is accepted at candidate -x, after the (k - x) % q wrong ones before it
        exact = math.prod((1.0 - q**-config.L) ** ((k - x) % q) for x in secret)
        bound_paper = 1.0 - (2 * k + 1) * n / float(q) ** config.L

        def run(rng: np.random.Generator) -> tuple[int, ...] | None:
            return sis_learn(k, config.L, state, rng)

        return Trial(secret, run, exact, bound_paper)

    # ring-global, whose conductor, noise and dimension were checked above
    emb = RingEmbedding.build(fp, config.m)
    exact = ((q - 1) / q) ** n

    def run(rng: np.random.Generator) -> tuple[int, ...] | None:
        src = ring_sample_stream(emb, secret, rng, config.noise.is_global)
        return ring_lwe_global_learn(emb, src, rng).secret

    return Trial(secret, run, exact)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the configured trials; deterministic for a fixed config and seed."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox())  # re-keyed before every use
    trial = build_trial(config, _rekey(rng, config.seed, 2**63))
    successes = sum(trial.run(_rekey(rng, config.seed, i)) == trial.secret for i in range(config.trials))
    lo, hi = wilson_interval(successes, config.trials)
    return ExperimentReport(
        config=config,
        successes=successes,
        trials=config.trials,
        empirical_rate=successes / config.trials,
        wilson_lo=lo,
        wilson_hi=hi,
        exact_probability=trial.exact,
        bound_paper=trial.bound_paper,
        bound_optimized=trial.bound_optimized,
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
            row = report.csv_row()
            if report.error is not None:  # a failed row keeps its configuration and its error, and no results
                row[12:-1] = [""] * 7
            writer.writerow(row)
