"""Noise models, sample specifications and the closed-form outcome engine.

A sample over F_q^n is the superposition (1/sqrt(v)) sum_{a in V} |a>|a.s + e_a>
on n+1 registers.  After a QFT on every register, the probability of landing on
a "good" outcome (-j*s mod q, j*) depends on the realized errors only through
their value histogram:

    P(good at j*) = |sum_b c_b omega^(b j*)|^2 / (q^(n+1) v),

where c_b counts the elements of V with error b.  ``outcome_distribution``
evaluates this in O(q * support) time without touching the q^(n+1) amplitude
vector, once per spec: the law is kept with the spec that it describes, so a
spec reused across attempts pays for it once.  The dense engine provides the
independent cross-check at small sizes.

The abstention probability (last register measuring 0) is 1/q exactly, by
Parseval over the j* = 0 slice, for any subset and any error assignment.

In memory a spec holds its subset as row-major flat indices into F_q^n (or
none, for all of F_q^n or an implicit subset) and its errors as an aligned
int64 array or a histogram; the vectors and the vector -> error map appear
only in the JSON form, with the documented keys q, n, s, subset, v,
noise, errors, seed (see ``spec_to_json``).
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .dense import DenseState, StateError, weighted_index
from .field import FieldParams, ParameterError, is_integer, roots_of_unity

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
        if self.kind == "gaussian" and not self.sigma > 0.0:
            raise ParameterError("gaussian noise needs sigma > 0")
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
def _distribution(noise: NoiseModel, q: int) -> tuple[tuple[int, ...], tuple[float, ...], np.ndarray, np.ndarray]:
    """(values, weights, values array, cdf) for a noise model at modulus q."""
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
    # SampleSpec checks error values against [min, max], exact for a run of integers.
    assert values == tuple(range(values[0], values[-1] + 1))
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return values, weights, np.asarray(values, dtype=np.int64), cdf


def require_drawable(v: int, noise: NoiseModel) -> None:
    """Reject subsets too large for per-element errors to be drawn as a histogram."""
    if v > MULTINOMIAL_LIMIT and not (noise.is_global or noise.kind == "none"):
        raise ParameterError(
            f"subset size v = {v} exceeds 2**63 - 1, the largest count of i.i.d. errors that can be drawn"
        )


def _draw_errors(noise: NoiseModel, q: int, size: int, rng: np.random.Generator) -> np.ndarray:
    values, _, values_arr, cdf = _distribution(noise, q)
    if len(values) == 1:
        return np.full(size, values[0], dtype=np.int64)
    # u < 1.0 = cdf[-1], so the right-side index never passes the last value
    return values_arr[np.searchsorted(cdf, rng.random(size), side="right")]


@dataclass(frozen=True, eq=False)
class SampleSpec:
    """Full description of one quantum sample: secret, subset, realized errors.

    ``subset`` holds the row-major flat indices of V in F_q^n.  None means all
    of F_q^n when v = q^n, and an implicit subset when v < q^n: a uniform
    v-subset that is not kept.  Exactly one of ``errors`` (an error per
    element of V, aligned with ``subset``, or with flat indices 0..q^n-1 when
    it is None) and ``histogram`` (error value -> count) is present.  An
    implicit subset carries a histogram, and an explicit one an error map or
    a single-bin histogram (which fixes every element's error).  Both arrays
    are stored as read-only int64 copies, and a spec is not modified after
    construction: its outcome law is computed on first use and kept with it.
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

    def __post_init__(self) -> None:
        q = self.fp.q
        if self.n < 1:
            raise ParameterError("dimension n must be >= 1")
        if len(self.s) != self.n or any(not 0 <= x < q for x in self.s):
            raise ParameterError("secret must be a length-n vector over [0, q)")
        qn = q**self.n
        if not 1 <= self.v <= qn:
            raise ParameterError(f"subset size v = {self.v} outside [1, q^n = {qn}]")
        support = _distribution(self.noise, q)[0]  # validates the noise for q on a cache miss
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
        # _outcome_law sums in this order; sorted values would move its last bit
        return dict(Counter(self.errors.tolist()))

    @cached_property
    def _outcome(self) -> "OutcomeDistribution":
        return _outcome_law(self)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome-category probabilities of the QFT-and-measure recovery step.

    ``per_jstar_good[j*]`` is the probability of the outcome
    (-j*s mod q, j*); entry 0 is unused and zero.
    """

    p_correct: float
    p_bot: float
    p_wrong: float
    per_jstar_good: np.ndarray

    def __post_init__(self) -> None:
        for name, value in (("p_correct", self.p_correct), ("p_bot", self.p_bot), ("p_wrong", self.p_wrong)):
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ParameterError(f"{name} = {value} outside [0, 1]")
        if abs(self.p_correct + self.p_bot + self.p_wrong - 1.0) > 1e-12:
            raise ParameterError("outcome probabilities must sum to 1")
        if abs(float(self.per_jstar_good[1:].sum()) - self.p_correct) > 1e-12:
            raise ParameterError("p_correct must equal the sum over j* != 0")


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


@lru_cache(maxsize=64)
def _vector_table(q: int, n: int) -> np.ndarray:
    """All vectors of F_q^n in flat-index order, as a read-only int64 array."""
    if q**n > ENUMERABLE_LIMIT:
        raise ParameterError(f"q^n = {q**n} too large to enumerate")
    table = _vectors_at(np.arange(q**n), q, n)
    table.flags.writeable = False  # shared by every caller of the memoized table
    return table


@lru_cache(maxsize=1)  # the attempts of one trial share its secret
def _dots_over_space(q: int, s: tuple[int, ...]) -> np.ndarray:
    """a.s for every a of F_q^n in flat-index order, as a read-only int64 array.

    Built as an outer sum over the registers, so no table of the q^n vectors
    is formed and any q^n that fits a dense state works.
    """
    digits = np.arange(q, dtype=np.int64)
    dots = s[0] * digits
    for si in s[1:]:
        dots = (dots[:, None] + si * digits).ravel()
    dots.flags.writeable = False  # shared by every caller of the memoized array
    return dots


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
    """Draw a fresh sample spec: uniform size-v subset, errors from the noise model.

    ``errors_as="map"`` (what the dense engine needs) draws the subset and an
    error per element.  ``"histogram"`` (enough for the analytic engine)
    draws only the error counts and leaves a proper subset implicit; the law
    depends on the counts alone, and a classical draw from a fresh spec is a
    uniform a with an independent error, so this is distributionally
    identical for every consumer that draws at most one classical sample per
    spec.
    """
    q = fp.q
    qn = q**n
    if not 1 <= v <= qn:
        raise ParameterError(f"subset size v = {v} outside [1, q^n = {qn}]")
    if errors_as not in ("map", "histogram"):
        raise ParameterError(f"errors_as must be 'map' or 'histogram', got {errors_as!r}")
    require_drawable(v, noise)

    subset: np.ndarray | None = None
    if v < qn and errors_as == "map":
        if qn > np.iinfo(np.int64).max:
            raise ParameterError("a proper subset of F_q^n is indexed in int64, so q^n must be <= 2**63 - 1")
        subset = rng.choice(qn, size=v, replace=False)

    errors: np.ndarray | None = None
    histogram: dict[int, int] | None = None
    if noise.is_global or noise.kind == "none":
        shift = int(_draw_errors(noise, q, 1, rng)[0]) if noise.is_global else 0
        histogram = {shift: v}
    elif errors_as == "histogram":
        values, weights = _distribution(noise, q)[:2]
        counts = rng.multinomial(v, weights)
        histogram = {b: int(c) for b, c in zip(values, counts) if c}
    else:
        errors = _draw_errors(noise, q, v, rng)
    return SampleSpec(
        fp=fp, n=n, s=tuple(s), v=v, noise=noise,
        subset=subset, errors=errors, histogram=histogram,
    )


def sample_stream(
    fp: FieldParams,
    n: int,
    s: tuple[int, ...],
    v: int,
    noise: NoiseModel,
    rng: np.random.Generator,
    errors_as: str = "map",
) -> Callable[[], SampleSpec]:
    """Source of i.i.d. fresh sample specs (new subset and errors per call)."""

    def source() -> SampleSpec:
        return draw_sample_spec(fp, n, s, v, noise, rng, errors_as=errors_as)

    return source


def materialize_dense(spec: SampleSpec) -> DenseState:
    """The state (1/sqrt(v)) sum_{a in V} |a>|a.s + e_a mod q> on n+1 registers."""
    q = spec.fp.q
    if spec.histogram is not None and len(spec.histogram) > 1:
        raise StateError("histogram spec has no per-vector error assignment")
    if spec.subset is None:
        if spec.v < q**spec.n:
            raise StateError("an implicit subset has no vectors to place amplitudes on")
        idx, dots = np.arange(spec.v, dtype=np.int64), _dots_over_space(q, spec.s)
    else:
        idx = spec.subset
        dots = _vectors_at(spec.subset, q, spec.n) @ np.asarray(spec.s, dtype=np.int64)
    # a single-bin histogram fixes the assignment: every element carries its one value
    errs = spec.errors if spec.errors is not None else next(iter(spec.histogram))
    flat = idx * q + (dots + errs) % q
    amps = np.zeros(q ** (spec.n + 1), dtype=np.complex128)
    amps[flat] = 1.0 / math.sqrt(spec.v)
    return DenseState(spec.fp, spec.n + 1, amps)


# Up to this n, n scalar draws beat one array draw: a scalar draw costs
# 3-4.5 us and an array call 7-10 us (NumPy 2.4.6, 2-core x86-64). They tie
# at n = 3; at n = 8 the scalars take 2-3x as long, at n = 20 5-6x.
_SCALAR_DRAWS_UP_TO = 2


def uniform_vector(q: int, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniform vector of F_q^n: ``rng.integers(0, q, size=n)``, made cheap for small n.

    For n <= _SCALAR_DRAWS_UP_TO it draws n scalars, which give the same values
    and leave the same generator state (the 32-bit half-word buffer lives in
    the bit generator, not in the call) without the array call's set-up.
    """
    if n <= _SCALAR_DRAWS_UP_TO:
        return tuple(int(rng.integers(q)) for _ in range(n))
    return tuple(rng.integers(0, q, size=n).tolist())


def draw_classical_sample(
    spec: SampleSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], int]:
    """Computational-basis measurement: a uniform over V, b = a.s + e.

    An implicit subset draws a uniform over F_q^n and e by the histogram
    counts: the marginal law of one draw from a fresh uniform v-subset.
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
        values = tuple(spec.histogram)
        counts = np.fromiter(spec.histogram.values(), dtype=np.float64)
        e = values[weighted_index(counts, rng)]
    b = (sum(ai * si for ai, si in zip(a, spec.s)) + e) % q
    return a, b


def outcome_distribution(spec: SampleSpec) -> OutcomeDistribution:
    """Exact category probabilities from the error-value histogram.

    O(q * support) time on the first call for a spec; later calls return the
    same (read-only) law.  Materializes q-length arrays, so it is meant for
    experiment-scale q (a guard rejects q > 2**26).
    """
    return spec._outcome


def _outcome_law(spec: SampleSpec) -> OutcomeDistribution:
    q = spec.fp.q
    if q > 2**26:
        raise ParameterError("outcome_distribution materializes q-length arrays; q too large")
    hist = spec.error_histogram()
    values = np.fromiter(hist.keys(), dtype=np.int64)
    counts = np.fromiter(hist.values(), dtype=np.float64)
    jstar = np.arange(1, q, dtype=np.int64)
    phases = roots_of_unity(q)[np.multiply.outer(values % q, jstar) % q]
    good_amp_sums = counts @ phases
    denom = float(spec.v) * float(q) ** (spec.n + 1)
    per = np.zeros(q, dtype=np.float64)
    per[1:] = np.abs(good_amp_sums) ** 2 / denom
    p_correct = float(per[1:].sum())
    p_bot = 1.0 / q  # Parseval over the j* = 0 slice, exact for any spec
    p_wrong = 1.0 - p_correct - p_bot
    if p_wrong < 0.0:
        if p_wrong < -1e-9:
            raise ParameterError(f"inconsistent outcome probabilities: p_wrong = {p_wrong}")
        p_wrong = 0.0
    per.flags.writeable = False  # shared by every caller of the memoized law
    return OutcomeDistribution(p_correct=p_correct, p_bot=p_bot, p_wrong=p_wrong, per_jstar_good=per)


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
        vectors = subset if subset is not None else _vector_table(spec.fp.q, spec.n).tolist()
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
