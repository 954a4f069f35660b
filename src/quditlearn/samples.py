"""Noise models, sample specifications and the closed-form outcome engine.

A sample over F_q^n is the superposition (1/sqrt(v)) sum_{a in V} |a>|a.s + e_a>
on n+1 registers.  After a QFT on every register, the probability of landing on
a "good" outcome (-j*s mod q, j*) depends on the realized errors only through
their value histogram:

    P(good at j*) = |sum_b c_b omega^(b j*)|^2 / (q^(n+1) v),

where c_b counts the elements of V with error b.  ``outcome_distribution``
gives the law of a spec without touching the q^(n+1) amplitude vector, once
per spec (the law is kept in the instance dict of the spec that it
describes, and read back without a lock).  Its total good
mass is exact: by Parseval over j* it is the collision count
(q sum_b c_b^2 - v^2) / (v q^(n+1)), found in O(support) time from integers
and rounded once.  The per-j* masses take O(q * support) time and are built
on first read, from omega^(b j*) rows gathered over the histogram's own
values: the recovery step (``learners.field_bv``) decides from the exact
mass and the abstention probability alone, and LWR's exact success,
``verify`` and the total-variation checks read the per-j* law.
``dense_outcome_distribution`` reads the same law off the dense engine.

The abstention probability (last register measuring 0) is 1/q exactly, by
Parseval over the j* = 0 slice, for any subset and any error assignment.

In memory a spec holds its subset as row-major flat indices into F_q^n (or
none, for all of F_q^n or an implicit subset) and its errors as an aligned
int64 array or a histogram; the vectors and the vector -> error map appear
only in the JSON form, with the documented keys q, n, s, subset, v,
noise, errors, seed (see ``spec_to_json``).

Validation runs where data enters: the public ``SampleSpec`` constructor and
``spec_from_json``.  ``spec_drawer`` checks its arguments and chooses its
kind (histogram, map, subset or shared) once per drawer, before any draw;
every spec its ``draw(rng)`` returns is built from data drawn from the
noise's own support, without checking that data again.
``classical_drawer``, the candidate test's sample oracle, shares those checks
and that kind.  It makes a fresh spec's RNG calls and its classical draw's,
but builds no spec: a histogram oracle picks its error from the
multinomial's count list by ``_histogram_pick``, the rule that
``draw_classical_sample`` applies to a spec's histogram.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from operator import mul
from typing import Callable

import numpy as np

from .dense import DenseState, StateError, checked_size
from .field import FieldParams, ParameterError, is_integer, phase_table

ENUMERABLE_LIMIT = 10**6  # largest q^n for which index space is materialized
MULTINOMIAL_LIMIT = 2**63 - 1  # numpy draws multinomial counts as int64

_GAMMA_GRID = np.arange(1e-4, 0.25, 1e-4)
# max of gamma * cos^2(2 pi gamma) over a grid in (0, 1/4): the "optimized" bound's constant
GAMMA_STAR = float(np.max(_GAMMA_GRID * np.cos(2.0 * np.pi * _GAMMA_GRID) ** 2))

# each noise kind -> the keys besides "kind" that it reads, in JSON order
_NOISE_KEYS = {
    "none": (),
    "bounded-uniform": ("k",),
    "gaussian": ("k", "sigma"),
    "bernoulli": ("eta",),
    "global-shift": ("inner",),
}


@dataclass(frozen=True)
class NoiseModel:
    """Error distribution attached to a sample.

    Values are centered representatives in [-k, k] (bits {0,1} for the q=2
    Bernoulli flip).  A global shift draws one value shared by every element
    of the superposition; all other kinds are i.i.d. per element.
    """

    kind: str
    k: int = 0
    sigma: float = 0.0
    eta: float = 0.0
    inner: "NoiseModel | None" = None

    def __post_init__(self) -> None:
        if self.kind not in _NOISE_KEYS:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if not is_integer(self.k):
            raise ParameterError(f"noise k must be an integer, got {self.k!r}")
        for name, value in (("sigma", self.sigma), ("eta", self.eta)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"noise {name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))  # JSON writes 1.0, not 1
        object.__setattr__(self, "k", int(self.k))
        if self.kind in ("bounded-uniform", "gaussian") and self.k < 0:
            raise ParameterError("noise magnitude bound k must be >= 0")
        if self.kind == "gaussian" and not (0.0 < self.sigma < math.inf and 2.0 * self.sigma * self.sigma > 0.0):
            raise ParameterError(f"gaussian noise needs sigma > 0, finite, with 2 sigma^2 > 0 in floats, got {self.sigma}")
        if self.kind == "bernoulli" and not 0.0 <= self.eta < 0.5:
            raise ParameterError(f"flip probability must lie in [0, 1/2), got {self.eta}")
        if self.kind == "global-shift":
            if self.inner is None or self.inner.kind not in ("none", "bounded-uniform", "gaussian"):
                raise ParameterError("global shift needs an inner centered distribution")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def bounded_uniform(cls, k: int) -> "NoiseModel":
        return cls("bounded-uniform", k=k)

    @classmethod
    def gaussian(cls, sigma: float, k: int) -> "NoiseModel":
        return cls("gaussian", k=k, sigma=sigma)

    @classmethod
    def bernoulli(cls, eta: float) -> "NoiseModel":
        return cls("bernoulli", eta=eta)

    @classmethod
    def global_shift(cls, inner: "NoiseModel") -> "NoiseModel":
        return cls("global-shift", inner=inner)

    @property
    def is_global(self) -> bool:
        return self.kind == "global-shift"

    @property
    def is_shared(self) -> bool:
        """Every element of a sample carries the same error: a global shift, or no noise."""
        return self.kind in ("global-shift", "none")

    def magnitude_bound(self) -> int:
        """Largest centered magnitude the model can emit."""
        if self.kind == "none":
            return 0
        if self.kind == "bernoulli":
            return 1
        if self.kind == "global-shift":
            return self.inner.magnitude_bound()
        return self.k

    def validate_for(self, q: int) -> None:
        if self.kind in ("bounded-uniform", "gaussian") and 2 * self.k + 1 > q:
            raise ParameterError(f"noise support 2k+1 = {2 * self.k + 1} exceeds q = {q}")
        if self.kind == "bernoulli" and q != 2:
            raise ParameterError("Bernoulli flip noise is defined only for q = 2")
        if self.kind == "global-shift":
            self.inner.validate_for(q)

    def distribution(self, q: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Support values and probabilities of a single error draw."""
        return _distribution(self, q)[:2]

    def __str__(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "bounded-uniform":
            return f"bounded-uniform(k={self.k})"
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma:g},k={self.k})"
        if self.kind == "bernoulli":
            return f"bernoulli(eta={self.eta:g})"
        return f"global-shift({self.inner})"


@lru_cache(maxsize=256)
def _distribution(noise: NoiseModel, q: int) -> tuple[tuple[int, ...], tuple[float, ...], np.ndarray]:
    """(values, weights, cdf) for a noise model at modulus q; the values are a run of integers."""
    noise.validate_for(q)
    if noise.kind == "none":
        values, weights = (0,), (1.0,)
    elif noise.kind == "bounded-uniform":
        values = tuple(range(-noise.k, noise.k + 1))
        weights = (1.0 / len(values),) * len(values)
    elif noise.kind == "gaussian":
        values = tuple(range(-noise.k, noise.k + 1))
        raw = [math.exp(-(b * b) / (2.0 * noise.sigma * noise.sigma)) for b in values]
        total = math.fsum(raw)
        weights = tuple(w / total for w in raw)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12
    elif noise.kind == "bernoulli":
        values, weights = (0, 1), (1.0 - noise.eta, noise.eta)
    else:
        values, weights = _distribution(noise.inner, q)[:2]
    # SampleSpec checks error values against [min, max], and _draw_errors offsets a CDF index by
    # values[0]: both exact for a run of integers.
    assert values == tuple(range(values[0], values[-1] + 1))
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    cdf.flags.writeable = False  # shared by every later draw at this (noise, q)
    return values, weights, cdf


def require_drawable(v: int, noise: NoiseModel, q: int, n: int) -> None:
    """Reject subsets too large for per-element errors to be drawn as a histogram."""
    if v > MULTINOMIAL_LIMIT and not noise.is_shared:
        size = f"{q}^{n}" if v == q**n else v
        raise ParameterError(
            f"subset size v = {size} exceeds 2**63 - 1, the largest count of i.i.d. errors that can be drawn"
        )


def _draw_errors(table, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. errors from a noise table ``_distribution(noise, q)``, as a read-only int64 array."""
    values, _, cdf = table
    if len(values) == 1:
        errors = np.full(size, values[0], dtype=np.int64)
    else:  # u < 1.0 = cdf[-1], so the right-side index never passes the last value
        errors = cdf.searchsorted(rng.random(size), "right")
        errors += values[0]  # the values are a run of integers
    errors.setflags(write=False)
    return errors


def _check_arguments(fp: FieldParams, n: int, s: tuple[int, ...], v: int, noise: NoiseModel):
    """Check n, s and v (integers, in range) and the noise at q; return ``_distribution(noise, q)``."""
    q = fp.q
    if not (is_integer(n) and is_integer(v) and all(map(is_integer, s))):
        raise ParameterError(f"n, v and the secret must be integers, got n = {n!r}, v = {v!r}, s = {s!r}")
    if n < 1:
        raise ParameterError("dimension n must be >= 1")
    if len(s) != n or min(s) < 0 or max(s) >= q:
        raise ParameterError("secret must be a length-n vector over [0, q)")
    qn = q**n
    if not 1 <= v <= qn:
        raise ParameterError(f"subset size v = {v} outside [1, q^n = {qn}]")
    return _distribution(noise, q)  # validates the noise for q on a cache miss


@dataclass(frozen=True, eq=False)
class SampleSpec:
    """Full description of one quantum sample: secret, subset, realized errors.

    ``subset`` holds the row-major flat indices of V in F_q^n.  None means all
    of F_q^n when v = q^n, and an implicit subset when v < q^n: a uniform
    v-subset that is not kept.  Exactly one of ``errors`` (an error per
    element of V, aligned with ``subset``, or with flat indices 0..q^n-1 when
    it is None) and ``histogram`` (error value -> count) is present.  An
    implicit subset carries a histogram, and an explicit one an error map or
    a single-bin histogram (which fixes every element's error).

    n, v, the secret and the histogram's values and counts must be integers
    (``field.is_integer``: no floats, no bools).  The constructor checks all
    of it and stores both arrays as read-only int64 copies and the histogram
    with Python-int values and counts.  A spec from a
    ``spec_drawer`` skips the constructor: its arguments were checked when
    the drawer was built and its data was drawn from the noise's own support,
    and its fresh int64 arrays are read-only.  A spec is not modified after
    construction: its outcome law is computed on first use and kept with it,
    in the instance dict under ``_law`` (``outcome_distribution``).
    """

    fp: FieldParams
    n: int
    s: tuple[int, ...]
    v: int
    noise: NoiseModel
    subset: np.ndarray | None = None
    errors: np.ndarray | None = None
    histogram: dict[int, int] | None = None
    seed: int | None = None
    _law = None  # not a field: the memoized outcome law, written once into the instance dict

    def __post_init__(self) -> None:
        support = _check_arguments(self.fp, self.n, self.s, self.v, self.noise)[0]
        qn = self.fp.q**self.n
        if self.subset is None:
            if self.errors is not None and self.v != qn:
                raise ParameterError("an implicit subset (v < q^n) carries a histogram, not an error map")
        else:
            subset = _read_only(self.subset, "subset")
            if subset.shape != (self.v,):
                raise ParameterError("explicit subset length must equal v")
            ordered = np.sort(subset)
            if ordered[0] < 0 or ordered[-1] >= qn:
                raise ParameterError(f"subset indices must lie in [0, q^n = {qn})")
            if (ordered[1:] == ordered[:-1]).any():
                raise ParameterError("explicit subset vectors must be distinct")
            object.__setattr__(self, "subset", subset)
        if (self.errors is None) == (self.histogram is None):
            raise ParameterError("exactly one of errors / histogram must be given")
        if self.errors is not None:
            errors = _read_only(self.errors, "errors")
            if errors.shape != (self.v,):
                raise ParameterError("error map must assign every subset element")
            bad = errors[(errors < support[0]) | (errors > support[-1])]
            if bad.size:
                raise ParameterError(f"error value {bad[0]} outside the noise support")
            object.__setattr__(self, "errors", errors)
        else:
            if self.subset is not None and len(self.histogram) > 1:
                raise ParameterError("an explicit subset carries an error map or a single-bin histogram")
            if not all(is_integer(b) and is_integer(c) for b, c in self.histogram.items()):
                raise ParameterError(f"histogram values and counts must be integers, got {self.histogram!r}")
            # the law squares the counts, which would overflow as NumPy's int64
            object.__setattr__(self, "histogram", {int(b): int(c) for b, c in self.histogram.items()})
            if any(c < 0 for c in self.histogram.values()):
                raise ParameterError("histogram counts must be non-negative")
            if sum(self.histogram.values()) != self.v:
                raise ParameterError("histogram counts must sum to v")
            bad = [b for b in self.histogram if b not in support]
            if bad:
                raise ParameterError(f"histogram value {bad[0]} outside the noise support")

    def error_histogram(self) -> dict[int, int]:
        """Counts of each realized error value, in order of first occurrence."""
        if self.histogram is not None:
            return dict(self.histogram)
        # the outcome law sums in this order; sorted values would move its last bit
        return dict(Counter(self.errors.tolist()))


def _good_masses(q: int, n: int, v: int, hist: dict[int, int]) -> np.ndarray:
    """P(good at j*) = |sum_b c_b omega^(b j*)|^2 / (q^(n+1) v) for each j* (entry 0 is zero)."""
    if q > 2**26:
        raise ParameterError("the per-j* outcome law materializes q-length arrays; q too large")
    if len(hist) * (q - 1) > 2**27:  # the phases and their exponents would take over 3 GiB
        raise ParameterError(f"the per-j* outcome law needs {len(hist)} x {q - 1} phases, over 2**27")
    values = np.fromiter(hist.keys(), dtype=np.int64)
    counts = np.fromiter(hist.values(), dtype=np.float64)
    # rows in the histogram's own order: summing in support order would move the last bit
    good_amp_sums = counts @ phase_table(q, values % q, np.arange(1, q, dtype=np.int64))
    per = np.zeros(q, dtype=np.float64)
    per[1:] = np.abs(good_amp_sums) ** 2 / (float(v) * float(q) ** (n + 1))
    return per


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Exact outcome-category probabilities of the QFT-and-measure recovery step.

    ``correct_mass`` (all good outcomes) and ``p_bot`` are set at
    construction.  The analytic engine's correct mass is the collision count
    (q sum_b c_b^2 - v^2) / (v q^(n+1)), found in O(support) time and rounded
    once from exact integers; the dense engine's is the float sum of its good
    cells.

    ``per_jstar_good[j*]`` is the probability of the outcome
    (-j*s mod q, j*); entry 0 is unused and zero.  It, p_correct (its float
    sum) and p_wrong (the rest, >= 0) are built by ``good`` on first read and
    checked then: the masses lie in [0, 1] and sum to 1, and p_correct is
    within 1e-12 of ``correct_mass``.  The array is read-only.
    """

    correct_mass: float
    p_bot: float
    good: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def _float_law(self) -> tuple[np.ndarray, float, float]:
        per = self.good()
        p_correct = float(per[1:].sum())
        p_wrong = 1.0 - p_correct - self.p_bot
        if p_wrong < -1e-9:
            raise ParameterError(f"inconsistent outcome probabilities: p_wrong = {p_wrong}")
        p_wrong = max(p_wrong, 0.0)
        for name, value in (("p_correct", p_correct), ("p_bot", self.p_bot), ("p_wrong", p_wrong)):
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ParameterError(f"{name} = {value} outside [0, 1]")
        if abs(p_correct + self.p_bot + p_wrong - 1.0) > 1e-12:
            raise ParameterError("outcome probabilities must sum to 1")
        if abs(p_correct - self.correct_mass) > 1e-12:
            raise ParameterError(f"p_correct = {p_correct} differs from the correct mass {self.correct_mass}")
        per.flags.writeable = False  # a law memoized on a spec is shared by every caller
        return per, p_correct, p_wrong

    @property
    def per_jstar_good(self) -> np.ndarray:
        return self._float_law[0]

    @property
    def p_correct(self) -> float:
        return self._float_law[1]

    @property
    def p_wrong(self) -> float:
        return self._float_law[2]

    def total_variation(self, other: "OutcomeDistribution") -> float:
        """Total variation distance between two laws over the same q."""
        good = float(np.abs(self.per_jstar_good - other.per_jstar_good).sum())
        return 0.5 * (good + abs(self.p_bot - other.p_bot) + abs(self.p_wrong - other.p_wrong))


def _read_only(values, name: str) -> np.ndarray:
    """A private read-only int64 copy: the law memoized on a spec must not go stale."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(f"{name} must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _flat_indices(vectors, q: int, n: int) -> np.ndarray:
    """Row-major flat indices into F_q^n of a vector, or of each row of an array of them."""
    try:
        return np.ravel_multi_index(np.asarray(vectors).T, (q,) * n)
    except (TypeError, ValueError) as exc:  # non-integer or out-of-range entries, wrong length, q^n > int64
        raise ParameterError(f"subset vectors must lie in F_q^{n}, with q^n <= 2**63 - 1") from exc


def _vectors_at(idx, q: int, n: int) -> np.ndarray:
    """The vectors of F_q^n at row-major flat indices (one row per index); inverts _flat_indices."""
    return np.stack(np.unravel_index(idx, (q,) * n), axis=-1).astype(np.int64)


@lru_cache(maxsize=1)  # dense LWE: every trial of a run shares its secret; LWR, SIS: one call per run
def _dots_over_space(q: int, s: tuple[int, ...]) -> np.ndarray:
    """a.s mod q for every a of F_q^n in flat-index order, as a read-only int64 array.

    Built as an outer sum over the registers, so no table of the q^n vectors
    is formed and any q^n that fits a dense state works.
    """
    digits = np.arange(q, dtype=np.int64)
    dots = s[0] * digits
    for si in s[1:]:
        dots = (dots[:, None] + si * digits).ravel()
    dots %= q
    dots.flags.writeable = False  # shared by every caller of the memoized array
    return dots


@lru_cache(maxsize=1)  # dense LWE on all of F_q^n, SIS: one (q, n) per run
def _row_starts(q: int, n: int) -> np.ndarray:
    """a*q for every a of F_q^n in flat-index order, the flat index of |a>|0>, as a read-only int64 array."""
    starts = np.arange(q**n, dtype=np.int64) * q
    starts.flags.writeable = False
    return starts


@lru_cache(maxsize=4)  # a run reads one q
def _residues(q: int) -> np.ndarray:
    """arange(2q) mod q, read-only: indexed by any i in [-2q, 2q) it gives i mod q.

    An index below 0 reads from the end, at 2q + i, which is i mod q too; so
    a gather through it reduces a.s mod q plus an error in (-q, q) without a
    division.
    """
    residues = np.arange(2 * q, dtype=np.int64) % q
    residues.flags.writeable = False
    return residues


def _spec_draws(fp: FieldParams, n: int, s: tuple[int, ...], v: int, noise: NoiseModel, errors_as: str):
    """A drawer's once-per-run checks, its kind and ``draws(rng)``: a fresh spec's RNG calls up to its error map.

    The kind is chosen once, here.  ``draws`` returns (subset or None, the one error) for "shared" noise, the
    error counts (aligned with the noise values, zeros kept) for "histogram", and the explicit proper subset
    or None for "subset" or "map", whose caller draws the error map next (``_draw_errors``).
    """
    if errors_as not in ("map", "histogram"):
        raise ParameterError(f"errors_as must be 'map' or 'histogram', got {errors_as!r}")
    table = _check_arguments(fp, n, s, v, noise)
    require_drawable(v, noise, fp.q, n)
    qn = fp.q**n
    draw_subset = v < qn and errors_as == "map"
    if draw_subset and qn > np.iinfo(np.int64).max:
        raise ParameterError("a proper subset of F_q^n is indexed in int64, so q^n must be <= 2**63 - 1")
    weights = np.asarray(table[1])  # an array: multinomial converts a tuple per call

    def subset(rng: np.random.Generator) -> np.ndarray | None:
        return rng.choice(qn, size=v, replace=False) if draw_subset else None

    if noise.is_shared:
        return table, "shared", lambda rng: (subset(rng), int(_draw_errors(table, 1, rng)[0]) if noise.is_global else 0)
    if errors_as == "histogram":
        return table, "histogram", lambda rng: rng.multinomial(v, weights).tolist()
    return table, "subset" if draw_subset else "map", subset


def spec_drawer(
    fp: FieldParams, n: int, s: tuple[int, ...], v: int, noise: NoiseModel, errors_as: str = "map"
) -> Callable[[np.random.Generator], SampleSpec]:
    """``draw(rng)``, a fresh sample spec per call: uniform size-v subset, errors from the noise model.

    ``errors_as="map"`` (what the dense engine needs) draws the subset and an
    error per element.  ``"histogram"`` (enough for the analytic engine)
    draws only the error counts and leaves a proper subset implicit; the law
    depends on the counts alone.  The arguments are checked here, once per
    drawer, as the public constructor checks them; the noise table is looked
    up and the drawer's kind chosen once (``_spec_draws``).  ``draw`` only
    makes the RNG calls and builds the frozen spec, whose fresh int64 arrays
    are read-only.
    """
    s = tuple(s)
    table, kind, draws = _spec_draws(fp, n, s, v, noise, errors_as)
    values = table[0]
    # the fields the frozen __init__ would set; draw writes them straight into each instance dict
    fields = dict(fp=fp, n=n, s=s, v=v, noise=noise, subset=None, errors=None, histogram=None, seed=None)

    if kind == "histogram":

        def draw(rng: np.random.Generator) -> SampleSpec:
            spec = object.__new__(SampleSpec)
            vars(spec).update(fields, histogram={b: c for b, c in zip(values, draws(rng)) if c})
            return spec

        return draw

    def draw(rng: np.random.Generator) -> SampleSpec:
        if kind == "shared":
            subset, e = draws(rng)
            errors, histogram = None, {e: v}
        else:
            subset, histogram = draws(rng), None
            errors = _draw_errors(table, v, rng)
        if subset is not None:
            subset.flags.writeable = False
        spec = object.__new__(SampleSpec)
        vars(spec).update(fields, subset=subset, errors=errors, histogram=histogram)
        return spec

    return draw


def classical_drawer(
    fp: FieldParams, n: int, s: tuple[int, ...], v: int, noise: NoiseModel, errors_as: str = "map"
) -> Callable[[np.random.Generator], tuple[tuple[int, ...], int]]:
    """``classical(rng) -> (a, b)``: ``draw_classical_sample(spec_drawer(...)(rng), rng)`` without the spec.

    It makes the same RNG calls in the same order and returns the same (a, b). A histogram drawer picks e
    from the multinomial's count list; of an error map's v uniforms it reads only a's, through the noise CDF
    (``bisect_right`` as ``searchsorted(..., "right")``).
    """
    q, s, strides = fp.q, tuple(s), [fp.q ** (n - 1 - i) for i in range(n)]
    (values, _, cdf), kind, draws = _spec_draws(fp, n, s, v, noise, errors_as)

    if kind == "histogram":  # an implicit or full subset: a is uniform over F_q^n

        def classical(rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
            counts = draws(rng)
            a = uniform_vector(q, n, rng)
            return a, (sum(map(mul, a, s)) + _histogram_pick(values, counts, rng)) % q

        return classical

    cdf = cdf.tolist()

    def classical(rng: np.random.Generator) -> tuple[tuple[int, ...], int]:
        if kind == "shared":
            subset, e = draws(rng)
        else:
            subset = draws(rng)
            uniforms = rng.random(v) if len(values) > 1 else None  # _draw_errors's draw
        if subset is None:
            a = uniform_vector(q, n, rng)
        else:
            pos = int(rng.integers(v))
            a = tuple(_vectors_at(subset[pos], q, n).tolist())
        if kind == "shared":
            e = _histogram_pick((e,), (v,), rng)  # the spec's single-bin histogram: one uniform, that value
        elif uniforms is None:
            e = values[0]
        else:  # the uniform at a's position in V, its row-major flat index when V is F_q^n
            if subset is None:
                pos = sum(map(mul, a, strides))
            e = values[0] + bisect_right(cdf, uniforms.item(pos))
        return a, (sum(map(mul, a, s)) + e) % q

    return classical


def draw_sample_spec(
    fp: FieldParams,
    n: int,
    s: tuple[int, ...],
    v: int,
    noise: NoiseModel,
    rng: np.random.Generator,
    *,
    errors_as: str = "map",
) -> SampleSpec:
    """One spec, ``spec_drawer(fp, n, s, v, noise, errors_as)(rng)``; a run builds one drawer instead."""
    return spec_drawer(fp, n, s, v, noise, errors_as)(rng)


def materialize_dense(spec: SampleSpec) -> DenseState:
    """The state (1/sqrt(v)) sum_{a in V} |a>|a.s + e_a mod q> on n+1 registers."""
    checked_size(spec.fp, spec.n + 1)  # the cap, before any index array is built
    q = spec.fp.q
    if spec.histogram is not None and len(spec.histogram) > 1:
        raise StateError("histogram spec has no per-vector error assignment")
    if spec.subset is None:
        if spec.v < q**spec.n:
            raise StateError("an implicit subset has no vectors to place amplitudes on")
        dots, starts = _dots_over_space(q, spec.s), _row_starts(q, spec.n)
    else:
        dots = (_vectors_at(spec.subset, q, spec.n) @ np.asarray(spec.s, dtype=np.int64)) % q
        starts = spec.subset * q
    # a single-bin histogram fixes the assignment: every element carries its one value
    errs = spec.errors if spec.errors is not None else next(iter(spec.histogram))
    support = _residues(q)[dots + errs]  # (a.s + e_a) mod q: every error lies in (-q, q)
    support += starts  # the flat index of |a>|a.s + e_a>
    return DenseState.uniform(spec.fp, spec.n + 1, support)


# Up to this n, coordinates drawn from the bit generator (0.4-0.8 us each at
# q = 101 and 257) beat one array draw (4.5-5 us; NumPy 2.4.6, 2-core x86-64).
# They tie at n = 11; near q = 2**31, where half of all words are rejected, at n = 6.
_SCALAR_DRAWS_UP_TO = 10


def uniform_vector(q: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniform vector of F_q^n: ``rng.integers(0, q, size=n)``, made cheap for small n.

    For 2 <= q <= 2**32 and n <= _SCALAR_DRAWS_UP_TO it reads the bit generator's
    ``next_uint32`` words in turn by NumPy's bounded rule (Lemire's
    multiply-and-reject, ``buffered_bounded_lemire_uint32``): word w gives m = w * q,
    which is the next coordinate m >> 32 unless its low word lies below 2**32 mod q,
    when the coordinate takes the next word instead.  So a vector costs its
    ``next_uint32`` calls and one tuple per coordinate, and gives the same values and
    generator state, buffered 32-bit half-word included, pinned by a test against
    ``rng.integers``.  It skips the bit generator's lock, which ``integers`` takes:
    every run in this package owns its generator in one thread.
    """
    if not (2 <= q <= 2**32 and n <= _SCALAR_DRAWS_UP_TO):  # below 2 NumPy draws nothing, above it takes 64 bits
        return tuple(rng.integers(0, q, size=n).tolist())
    ct = rng.bit_generator.ctypes
    next_uint32, state, threshold = ct.next_uint32, ct.state, 2**32 % q
    vector = ()
    while len(vector) < n:
        m = next_uint32(state) * q
        if m & 0xFFFFFFFF >= threshold:
            vector += (m >> 32,)
    return vector


def draw_classical_sample(
    spec: SampleSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], int]:
    """Computational-basis measurement: a uniform over V, b = a.s + e.

    An implicit subset draws a uniform over F_q^n and e by the histogram
    counts (``_histogram_pick``): the marginal law of one draw from a fresh
    uniform v-subset.  A run's test samples come from ``classical_drawer``,
    which draws the same (a, b) without building the spec.
    """
    q = spec.fp.q
    if spec.subset is not None:
        pos = int(rng.integers(spec.v))
        a = tuple(_vectors_at(spec.subset[pos], q, spec.n).tolist())
    else:
        a = uniform_vector(q, spec.n, rng)
    if spec.errors is not None:
        # flat indices are numpy's row-major order, so errors over all of F_q^n index as a (q,)*n grid
        e = int(spec.errors[pos] if spec.subset is not None else spec.errors.reshape((q,) * spec.n)[a])
    else:
        e = _histogram_pick(spec.histogram.keys(), spec.histogram.values(), rng)
    b = (sum(ai * si for ai, si in zip(a, spec.s)) + e) % q
    return a, b


def _histogram_pick(values, counts, rng: np.random.Generator) -> int:
    """``values[weighted_index(counts, rng)]`` over the nonzero counts, bit for bit: one uniform u, the float
    running sums in order, and the first bin whose sum exceeds u times the total (else the last nonzero bin).

    ``values`` and ``counts`` are aligned: a histogram's keys and values, or the noise values and a
    multinomial's count list.  Zero counts are skipped, so both pick the same bin from the same uniform.
    """
    total = 0.0
    for c in counts:
        total += c
    target, running = rng.random() * total, 0.0
    for b, c in zip(values, counts):
        if c:
            e, running = b, running + c
            if running > target:
                break
    return e


def outcome_distribution(spec: SampleSpec) -> OutcomeDistribution:
    """Exact category probabilities from the error-value histogram (the analytic engine).

    The first call for a spec takes O(support) time and builds no array: it
    finds the exact correct mass and p_bot = 1/q, at any q.  The per-j*
    masses and the float p_correct and p_wrong take O(q * support) time and
    q-length arrays, and are built on first read, which rejects q > 2**26
    before allocating.  Later calls return the same law.

    The law is memoized in the spec's instance dict and read back as a plain
    attribute, with no lock (``cached_property`` takes one on every miss, and
    every fresh spec misses); it is built as ``spec_drawer`` builds a spec,
    without the frozen ``__init__``.
    """
    law = spec._law
    if law is not None:
        return law
    q, n, v = spec.fp.q, spec.n, spec.v
    hist = spec.histogram if spec.histogram is not None else spec.error_histogram()
    counts = hist.values()
    # Parseval over j*: sum_{j* != 0} |sum_b c_b omega^(b j*)|^2 = q sum_b c_b^2 - v^2, as the
    # support's values are distinct mod q; one int division rounds the exact ratio once
    collisions = sum(map(mul, counts, counts))
    law = object.__new__(OutcomeDistribution)
    vars(law).update(
        correct_mass=(q * collisions - v * v) / (v * q ** (n + 1)),
        p_bot=1.0 / q,  # Parseval over the j* = 0 slice
        good=partial(_good_masses, q, n, v, hist),
    )
    vars(spec)["_law"] = law
    return law


def dense_outcome_distribution(spec: SampleSpec) -> OutcomeDistribution:
    """The same law off the dense engine, the cross-check oracle: the good cell (-j*s mod q, j*)
    of the fully transformed state for each j*, and bot from its j* = 0 slice."""
    q = spec.fp.q
    probs = materialize_dense(spec).apply_qft_all().probabilities().reshape((q,) * (spec.n + 1))
    per = np.zeros(q)
    for jstar in range(1, q):
        per[jstar] = probs[tuple((-jstar * si) % q for si in spec.s) + (jstar,)]
    return OutcomeDistribution(float(per[1:].sum()), float(probs[..., 0].sum()), lambda: per)


def theoretical_bound(v: int, k: int, q: int, n: int, gamma_mode: str = "paper") -> float:
    """Lower bound on the per-sample recovery probability under k-bounded noise.

    "paper" is the closed constant v/(20 k q^n); "optimized" maximizes
    gamma * v * cos^2(2 pi gamma) / (k q^n) over a gamma grid in (0, 1/4).
    """
    if k < 1:
        raise ParameterError("bound requires k >= 1; the noiseless case is exact: (q-1)/q")
    if not 1 <= v <= q**n:
        raise ParameterError(f"v = {v} outside [1, q^n]")
    scale = v / (k * q**n)
    if gamma_mode == "paper":
        return scale / 20.0
    if gamma_mode == "optimized":
        return GAMMA_STAR * scale
    raise ParameterError(f"unknown gamma mode {gamma_mode!r}")


# --- serialization -----------------------------------------------------------

def spec_to_json(spec: SampleSpec) -> str:
    """Serialize to the documented key-value schema (q, n, s, subset, v, noise, errors, seed).

    ``subset`` is "all" for v = q^n, null for an implicit subset, else a vector list.
    """
    noise = _noise_to_obj(spec.noise)
    subset = None if spec.subset is None else _vectors_at(spec.subset, spec.fp.q, spec.n).tolist()
    if spec.errors is not None:
        vectors = (  # an error map without a subset covers F_q^n in flat-index order
            subset if subset is not None else _vectors_at(np.arange(spec.v), spec.fp.q, spec.n).tolist()
        )
        errors = {"map": [[a, e] for a, e in zip(vectors, spec.errors.tolist())]}
    else:
        errors = {"histogram": [[b, c] for b, c in spec.histogram.items()]}
    if subset is None and spec.v == spec.fp.q**spec.n:
        subset = "all"
    return json.dumps(
        {
            "q": spec.fp.q,
            "n": spec.n,
            "s": list(spec.s),
            "subset": subset,
            "v": spec.v,
            "noise": noise,
            "errors": errors,
            "seed": spec.seed,
        }
    )


def _json_int(value, key: str) -> int:
    """A JSON integer, or a ParameterError naming its key (int() would truncate 1.9 to 1)."""
    if not is_integer(value):
        raise ParameterError(f"spec key {key!r} must hold integers, got {value!r}")
    return value


def spec_from_json(text: str) -> SampleSpec:
    obj = json.loads(text)
    fp = FieldParams(obj["q"])
    n = _json_int(obj["n"], "n")
    v = _json_int(obj["v"], "v")
    subset = obj["subset"]
    if subset == "all" or subset is None:
        if (subset == "all") != (v == fp.q**n):
            raise ParameterError('subset "all" needs v = q^n, and null (implicit) needs v < q^n')
        subset = None
    else:
        subset = _flat_indices(subset, fp.q, n).tolist()
    errors = histogram = None
    if "map" in obj["errors"]:
        pairs = obj["errors"]["map"]
        keys = _flat_indices([a for a, _ in pairs], fp.q, n).tolist()
        by_index = {i: _json_int(e, "errors") for i, (_, e) in zip(keys, pairs)}
        order = subset if subset is not None else range(len(by_index))
        if len(pairs) != len(by_index) or set(by_index) != set(order):
            raise ParameterError("error map keys must match the subset")
        errors = [by_index[i] for i in order]
    else:
        histogram = {_json_int(b, "errors"): _json_int(c, "errors") for b, c in obj["errors"]["histogram"]}
    if not all(is_integer(x) for x in obj["s"]):
        raise ParameterError(f"secret coordinates must be integers, got {obj['s']!r}")
    return SampleSpec(
        fp=fp,
        n=n,
        s=tuple(obj["s"]),
        v=v,
        noise=_noise_from_obj(obj["noise"]),
        subset=subset,
        errors=errors,
        histogram=histogram,
        seed=obj.get("seed"),
    )


def _noise_to_obj(noise: NoiseModel) -> dict:
    obj: dict = {"kind": noise.kind}
    for key in _NOISE_KEYS[noise.kind]:
        value = getattr(noise, key)
        obj[key] = _noise_to_obj(value) if key == "inner" else value
    return obj


def _noise_from_obj(obj: dict, key: str = "noise") -> NoiseModel:
    """The noise model of a JSON object; a missing key raises KeyError, an unread one ParameterError."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{key} must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _NOISE_KEYS:
        raise ParameterError(f"unknown noise kind {kind!r}")
    reads = _NOISE_KEYS[kind]
    unread = [name for name in obj if name != "kind" and name not in reads]
    if unread:
        raise ParameterError(f"{key} key {unread[0]!r} is not read by noise kind {kind!r}")
    fields = {name: obj[name] for name in reads}
    if kind == "global-shift":
        fields["inner"] = _noise_from_obj(obj["inner"], "inner")
    return NoiseModel(kind, **fields)
