import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditlearn.dense import StateError
from quditlearn.field import FieldParams, ParameterError
from quditlearn.samples import (
    NoiseModel,
    SampleSpec,
    _vector_table,
    draw_classical_sample,
    draw_sample_spec,
    materialize_dense,
    outcome_distribution,
    sample_stream,
    spec_from_json,
    spec_to_json,
    theoretical_bound,
    uniform_vector,
)
from quditlearn.verify import _dense_category_probabilities

from conftest import basis_state, make_rng


# --- noise models ---------------------------------------------------------


def test_gaussian_weights_normalized_and_shaped():
    values, weights = NoiseModel.gaussian(1.0, 2).distribution(11)
    assert values == (-2, -1, 0, 1, 2)
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    assert weights[2] > weights[1] == weights[3] > weights[0] == weights[4]


def test_noise_support_must_fit_field():
    with pytest.raises(ParameterError):
        NoiseModel.bounded_uniform(3).validate_for(5)
    NoiseModel.bounded_uniform(2).validate_for(5)


def test_bernoulli_only_at_q2():
    with pytest.raises(ParameterError):
        NoiseModel.bernoulli(0.1).validate_for(3)
    with pytest.raises(ParameterError):
        NoiseModel.bernoulli(0.5)
    assert NoiseModel.bernoulli(0.0).distribution(2) == ((0, 1), (1.0, 0.0))


def test_global_shift_wraps_centered_distribution():
    noise = NoiseModel.global_shift(NoiseModel.bounded_uniform(1))
    assert noise.is_global and noise.magnitude_bound() == 1
    with pytest.raises(ParameterError):
        NoiseModel.global_shift(NoiseModel.bernoulli(0.1))


# --- drawing specs --------------------------------------------------------


def test_draw_noiseless_spec_uses_single_bin_histogram(rng):
    spec = draw_sample_spec(FieldParams(7), 2, (1, 2), 49, NoiseModel.none(), rng)
    assert spec.subset is None and spec.histogram == {0: 49}


def test_draw_full_subset_small_v_uses_explicit_map(rng):
    spec = draw_sample_spec(FieldParams(5), 2, (1, 2), 25, NoiseModel.bounded_uniform(1), rng)
    assert spec.subset is None and spec.errors is not None
    assert spec.errors.shape == (25,) and set(spec.errors.tolist()) <= {-1, 0, 1}


def test_drawn_subset_is_uniform_and_distinct(rng):
    spec = draw_sample_spec(FieldParams(7), 2, (0, 0), 10, NoiseModel.none(), rng)
    assert spec.subset.shape == (10,) and len(set(spec.subset.tolist())) == 10
    assert all(0 <= i < 7**2 for i in spec.subset.tolist())


def test_large_v_bin_fractions(rng):
    # v = 1e5 out of 7^7: explicit subset and map, i.i.d. uniform over 3 values
    v = 100_000
    spec = draw_sample_spec(FieldParams(7), 7, (1, 2, 3, 4, 5, 6, 0), v, NoiseModel.bounded_uniform(1), rng)
    assert spec.errors is not None and len(spec.errors) == v
    hist = spec.error_histogram()
    sigma = math.sqrt(v * (1 / 3) * (2 / 3))
    for b in (-1, 0, 1):
        assert abs(hist[b] - v / 3) <= 3 * sigma


def test_forced_histogram_multinomial(rng):
    spec = draw_sample_spec(
        FieldParams(11), 1, (3,), 11, NoiseModel.bounded_uniform(1), rng, errors_as="histogram"
    )
    assert spec.histogram is not None and sum(spec.histogram.values()) == 11


def test_dense_map_keeps_per_element_errors_above_a_million_elements(rng):
    # 2^21 amplitudes fit the dense cap, so the map form must not switch to a histogram here
    s = tuple(int(x) for x in rng.integers(0, 2, size=20))
    spec = draw_sample_spec(FieldParams(2), 20, s, 2**20, NoiseModel.bernoulli(0.1), rng)
    assert spec.subset is None and spec.histogram is None and spec.errors.shape == (2**20,)


def test_histogram_draw_leaves_a_proper_subset_implicit(rng):
    for noise in (NoiseModel.bounded_uniform(1), NoiseModel.none(),
                  NoiseModel.global_shift(NoiseModel.bounded_uniform(1))):
        spec = draw_sample_spec(FieldParams(11), 2, (3, 4), 50, noise, rng, errors_as="histogram")
        assert spec.subset is None and spec.errors is None and sum(spec.histogram.values()) == 50


def test_draw_accepts_only_map_or_histogram(rng):
    for errors_as in ("auto", "", None):
        with pytest.raises(ParameterError, match="errors_as"):
            draw_sample_spec(FieldParams(5), 1, (1,), 3, NoiseModel.none(), rng, errors_as=errors_as)


def test_draw_rejects_oversized_v(rng):
    with pytest.raises(ParameterError):
        draw_sample_spec(FieldParams(3), 1, (1,), 4, NoiseModel.none(), rng)


def test_draw_rejects_proper_subset_beyond_int64_indices(rng):
    # 101^10 > 2^63 - 1: the flat indices of a proper subset would not fit int64
    with pytest.raises(ParameterError, match=r"2\*\*63 - 1"):
        draw_sample_spec(FieldParams(101), 10, (0,) * 10, 2_000_000, NoiseModel.bounded_uniform(1), rng)


def test_global_shift_draw_realizes_single_value(rng):
    noise = NoiseModel.global_shift(NoiseModel.bounded_uniform(2))
    spec = draw_sample_spec(FieldParams(11), 1, (3,), 11, noise, rng)
    assert len(spec.histogram) == 1 and sum(spec.histogram.values()) == 11


def test_spec_validation_catches_inconsistencies():
    fp = FieldParams(5)
    with pytest.raises(ParameterError):  # multi-bin histogram with small explicit subset
        SampleSpec(fp=fp, n=1, s=(1,), v=2, noise=NoiseModel.bounded_uniform(1),
                   subset=[0, 1], histogram={0: 1, 1: 1})
    with pytest.raises(ParameterError):  # error outside support
        SampleSpec(fp=fp, n=1, s=(1,), v=1, noise=NoiseModel.none(), subset=[0], errors=[1])
    with pytest.raises(ParameterError):  # counts do not sum to v
        SampleSpec(fp=fp, n=1, s=(1,), v=5, noise=NoiseModel.none(), histogram={0: 4})
    with pytest.raises(ParameterError):  # duplicate subset vectors
        SampleSpec(fp=fp, n=1, s=(1,), v=2, noise=NoiseModel.none(), subset=[0, 0], errors=[0, 0])
    noise = NoiseModel.bounded_uniform(1)
    with pytest.raises(ParameterError, match="must lie in"):  # index q^n = 25 outside F_5^2
        SampleSpec(fp=fp, n=2, s=(1, 2), v=2, noise=noise, subset=[0, 25], errors=[0, 0])
    with pytest.raises(ParameterError, match="must lie in"):  # negative index
        SampleSpec(fp=fp, n=1, s=(1,), v=1, noise=noise, subset=[-1], errors=[0])
    with pytest.raises(ParameterError, match="every subset element"):  # errors of the wrong length
        SampleSpec(fp=fp, n=1, s=(1,), v=2, noise=noise, subset=[0, 1], errors=[0])
    with pytest.raises(ParameterError, match="errors must hold integers"):  # would truncate to 0
        SampleSpec(fp=fp, n=1, s=(1,), v=1, noise=noise, subset=[0], errors=[0.5])
    with pytest.raises(ParameterError, match="subset must hold integers"):
        SampleSpec(fp=fp, n=1, s=(1,), v=1, noise=noise, subset=[1.5], errors=[0])
    with pytest.raises(ParameterError, match="implicit subset"):  # an error map needs its vectors
        SampleSpec(fp=fp, n=1, s=(1,), v=2, noise=noise, errors=[0, 1])
    with pytest.raises(ParameterError, match="explicit subset"):  # above 10^6 elements too
        SampleSpec(fp=FieldParams(2), n=21, s=(0,) * 21, v=10**6 + 1, noise=NoiseModel.bernoulli(0.1),
                   subset=np.arange(10**6 + 1), histogram={0: 10**6, 1: 1})
    # 101^10 > 2^63 - 1: a proper subset there has no int64 flat indices
    text = json.dumps({"q": 101, "n": 10, "s": [0] * 10, "subset": [[1] * 10], "v": 1,
                       "noise": {"kind": "none"}, "errors": {"histogram": [[0, 1]]}, "seed": None})
    with pytest.raises(ParameterError, match=r"2\*\*63 - 1"):
        spec_from_json(text)
    for bad in (NoiseModel.bounded_uniform, lambda x: NoiseModel.gaussian(1.0, x)):
        with pytest.raises(ParameterError, match="noise k must be an integer"):
            bad(1.5)
    for bad in (lambda x: NoiseModel.gaussian(x, 2), NoiseModel.bernoulli):
        for value in (True, "0.1"):
            with pytest.raises(ParameterError, match="must be a number"):
                bad(value)
    good = {"q": 5, "n": 2, "s": [1, 3], "subset": "all", "v": 25, "seed": None,
            "noise": {"kind": "bounded-uniform", "k": 1}, "errors": {"histogram": [[0, 25]]}}
    spec_from_json(json.dumps(good))
    with pytest.raises(ParameterError, match="secret coordinates must be integers"):
        spec_from_json(json.dumps(good | {"s": [1.5, 3]}))
    with pytest.raises(ParameterError, match="noise k must be an integer"):
        spec_from_json(json.dumps(good | {"noise": {"kind": "bounded-uniform", "k": 1.7}}))
    mapped = {"q": 5, "n": 1, "s": [2], "subset": [[0], [3]], "v": 2, "seed": None,
              "noise": {"kind": "bounded-uniform", "k": 1}, "errors": {"map": [[[0], 0], [[3], 1]]}}
    spec_from_json(json.dumps(mapped))
    for bad, key in (  # int() would read each of these as a neighbouring integer
        (good | {"n": 1.9}, "'n'"),
        (good | {"v": 25.0}, "'v'"),
        (mapped | {"errors": {"map": [[[0], 0], [[3], 0.5]]}}, "'errors'"),
        (mapped | {"errors": {"map": [[[0], 0], [[3], -1.9]]}}, "'errors'"),
        (good | {"errors": {"histogram": [[0.4, 25]]}}, "'errors'"),
        (good | {"errors": {"histogram": [[0, 20], [1, 5.7]]}}, "'errors'"),
        (good | {"errors": {"histogram": [[0, True]]}}, "'errors'"),
    ):
        with pytest.raises(ParameterError, match=f"spec key {key} must hold integers"):
            spec_from_json(json.dumps(bad))


@pytest.mark.parametrize("noise, error, named", [
    ({"kind": "gaussian", "k": 1}, KeyError, "'sigma'"),  # a missing key
    ({"kind": "global-shift", "inner": 3}, ParameterError, "inner must be an object"),
    ({"kind": "bounded-uniform", "k": 1.5}, ParameterError, "noise k must be an integer"),
    ({"kind": "gaussian", "k": 2, "sigma": True}, ParameterError, "noise sigma must be a number"),
    ({"kind": "bounded-uniform", "k": 1, "sgima": 3}, ParameterError, "noise key 'sgima' is not read"),
    ({"kind": "global-shift", "inner": {"kind": "none", "k": 1}}, ParameterError, "inner key 'k' is not read"),
])
def test_spec_json_noise_holds_exactly_the_keys_its_kind_reads(noise, error, named):
    good = {"q": 5, "n": 2, "s": [1, 3], "subset": "all", "v": 25, "seed": None,
            "noise": {"kind": "bounded-uniform", "k": 1}, "errors": {"histogram": [[0, 25]]}}
    with pytest.raises(error, match=re.escape(named)):
        spec_from_json(json.dumps(good | {"noise": noise}))


# --- materialization ------------------------------------------------------


def test_materialize_n1_q3_noiseless():
    fp = FieldParams(3)
    spec = SampleSpec(fp=fp, n=1, s=(2,), v=3, noise=NoiseModel.none(), histogram={0: 3})
    probs = materialize_dense(spec).probabilities().reshape(3, 3)
    for a in range(3):
        assert probs[a, 2 * a % 3] == pytest.approx(1 / 3, abs=1e-12)


def test_materialize_single_vector_is_basis_state(rng):
    fp = FieldParams(5)
    spec = SampleSpec(fp=fp, n=1, s=(3,), v=1, noise=NoiseModel.none(), subset=[2], errors=[0])
    state = materialize_dense(spec)
    assert state.measure_all(rng) == (2, (2 * 3) % 5)


def test_materialize_marginal_uniform_over_subset(rng):
    # exhaustive amplitude check across several small specs
    for key, (q, n) in enumerate([(3, 2), (5, 1), (7, 1), (11, 1)]):
        local = make_rng(300 + key)
        fp = FieldParams(q)
        v = int(local.integers(1, q**n + 1))
        s = tuple(int(x) for x in local.integers(0, q, size=n))
        spec = draw_sample_spec(fp, n, s, v, NoiseModel.bounded_uniform(1), local)
        probs = materialize_dense(spec).probabilities().reshape((q,) * n + (q,))
        marginal = probs.sum(axis=-1)
        indices = spec.subset if spec.subset is not None else np.arange(q**n)
        for a in zip(*np.unravel_index(indices, (q,) * n)):
            assert marginal[a] == pytest.approx(1 / v, abs=1e-12)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-12)


def test_materialize_rejects_ambiguous_histogram():
    fp = FieldParams(5)
    spec = SampleSpec(fp=fp, n=1, s=(1,), v=5, noise=NoiseModel.bounded_uniform(1),
                      histogram={0: 3, 1: 2})
    with pytest.raises(StateError):
        materialize_dense(spec)


def test_materialize_rejects_implicit_subset():
    fp = FieldParams(5)
    for noise, histogram in ((NoiseModel.none(), {0: 3}), (NoiseModel.bounded_uniform(1), {0: 2, 1: 1})):
        spec = SampleSpec(fp=fp, n=1, s=(1,), v=3, noise=noise, histogram=histogram)
        with pytest.raises(StateError):
            materialize_dense(spec)


def test_materialize_accepts_degenerate_histogram():
    fp = FieldParams(5)
    noise = NoiseModel.global_shift(NoiseModel.bounded_uniform(1))
    spec = SampleSpec(fp=fp, n=1, s=(1,), v=5, noise=noise, histogram={1: 5})
    probs = materialize_dense(spec).probabilities().reshape(5, 5)
    for a in range(5):
        assert probs[a, (a + 1) % 5] == pytest.approx(1 / 5, abs=1e-12)


# --- classical draws ------------------------------------------------------


def _state_of(rng):
    """A generator's full state with its arrays as lists, so two states compare with ==."""
    state = rng.bit_generator.state
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in
            state.items() if k != "state"} | {k: v.tolist() for k, v in state["state"].items()}


@pytest.mark.parametrize("q", [2, 3, 101, 257, 65537])
def test_uniform_vector_is_the_array_draw(q):
    # Reports are pinned to the stream of rng.integers(0, q, size=n); a numpy
    # release that moves either draw must fail here, not in a golden.
    scalar, array = make_rng(0x5CA1A), make_rng(0x5CA1A)
    # odd sizes leave a buffered 32-bit half-word behind; n = 8 and 20 take the array draw
    for n in (1, 2, 3, 4, 3, 1, 2, 4, 8, 1, 20, 2):
        assert uniform_vector(q, n, scalar) == tuple(array.integers(0, q, size=n).tolist())
        assert scalar.random() == array.random()
        assert uniform_vector(q, n, scalar) == tuple(array.integers(0, q, size=n).tolist())
        assert scalar.multinomial(50, [0.2, 0.3, 0.5]).tolist() == array.multinomial(50, [0.2, 0.3, 0.5]).tolist()
        assert _state_of(scalar) == _state_of(array)


def test_classical_sample_noiseless_identity(rng):
    spec = draw_sample_spec(FieldParams(7), 2, (1, 4), 49, NoiseModel.none(), rng)
    for _ in range(200):
        a, b = draw_classical_sample(spec, rng)
        assert b == (a[0] * 1 + a[1] * 4) % 7


def test_classical_sample_error_always_bounded(rng):
    from quditlearn.field import centered_abs

    spec = draw_sample_spec(FieldParams(11), 1, (7,), 11, NoiseModel.bounded_uniform(1), rng)
    for _ in range(500):
        a, b = draw_classical_sample(spec, rng)
        assert centered_abs(b - a[0] * 7, 11) <= 1


def test_classical_sample_frequencies_match_enumeration(rng):
    fp = FieldParams(11)
    spec = draw_sample_spec(fp, 1, (7,), 11, NoiseModel.bounded_uniform(1), rng)
    expected = {((a,), (a * 7 + int(e)) % 11) for a, e in enumerate(spec.errors)}
    n = 40_000
    counts: dict = {}
    for _ in range(n):
        pair = draw_classical_sample(spec, rng)
        assert pair in expected
        counts[pair] = counts.get(pair, 0) + 1
    sigma = math.sqrt(n * (1 / 11) * (10 / 11))
    assert all(abs(c - n / 11) <= 3 * sigma for c in counts.values())


def test_classical_sample_histogram_mode(rng):
    spec = draw_sample_spec(
        FieldParams(11), 1, (7,), 11, NoiseModel.bounded_uniform(1), rng, errors_as="histogram"
    )
    from quditlearn.field import centered_abs

    for _ in range(300):
        a, b = draw_classical_sample(spec, rng)
        assert centered_abs(b - a[0] * 7, 11) <= 1


def test_classical_sample_from_an_explicit_proper_subset(rng):
    q, n, s, v = 7, 2, (3, 5), 10
    spec = draw_sample_spec(FieldParams(q), n, s, v, NoiseModel.bounded_uniform(1), rng)
    assert spec.subset is not None and spec.subset.size == v < q**n
    error_of = {
        tuple(int(x) for x in np.unravel_index(int(f), (q,) * n)): int(e)
        for f, e in zip(spec.subset, spec.errors)
    }
    draws = 5000
    counts = dict.fromkeys(error_of, 0)
    for _ in range(draws):
        a, b = draw_classical_sample(spec, rng)
        assert a in error_of  # a is a subset vector
        assert b == (a[0] * s[0] + a[1] * s[1] + error_of[a]) % q
        counts[a] += 1
    sigma = math.sqrt(draws * (1 / v) * (1 - 1 / v))
    assert all(abs(c - draws / v) <= 5 * sigma for c in counts.values())


# --- implicit subsets -----------------------------------------------------


def implicit_twin(spec: SampleSpec) -> SampleSpec:
    """The same secret, v and error histogram, with the subset left implicit."""
    return SampleSpec(fp=spec.fp, n=spec.n, s=spec.s, v=spec.v, noise=spec.noise,
                      histogram=spec.error_histogram())


@pytest.mark.parametrize("q, n, v, noise", [
    (5, 2, 7, NoiseModel.bounded_uniform(1)),
    (7, 2, 20, NoiseModel.bounded_uniform(2)),
    (3, 3, 13, NoiseModel.none()),
    (2, 4, 9, NoiseModel.bernoulli(0.3)),
    (11, 1, 4, NoiseModel.gaussian(1.0, 2)),
])
def test_implicit_subset_law_equals_explicit_law_and_dense_oracle(q, n, v, noise):
    local = make_rng(500 + q * 10 + n)
    s = tuple(int(x) for x in local.integers(0, q, size=n))
    explicit = draw_sample_spec(FieldParams(q), n, s, v, noise, local)
    implicit = implicit_twin(explicit)
    assert explicit.subset is not None and implicit.subset is None
    law, twin = outcome_distribution(explicit), outcome_distribution(implicit)
    assert np.array_equal(law.per_jstar_good.view(np.uint64), twin.per_jstar_good.view(np.uint64))
    assert (law.p_correct, law.p_bot, law.p_wrong) == (twin.p_correct, twin.p_bot, twin.p_wrong)
    per, p_bot, p_wrong = _dense_category_probabilities(explicit)
    for dist in (law, twin):
        tv = 0.5 * (np.abs(per - dist.per_jstar_good).sum()
                    + abs(p_bot - dist.p_bot) + abs(p_wrong - dist.p_wrong))
        assert tv <= 1e-9


def test_implicit_subset_classical_draws_are_uniform_a_and_histogram_errors():
    from quditlearn.field import centered

    q, n, v, draws = 5, 2, 9, 40_000
    spec = SampleSpec(fp=FieldParams(q), n=n, s=(2, 3), v=v, noise=NoiseModel.bounded_uniform(1),
                      histogram={-1: 2, 0: 3, 1: 4})
    local = make_rng(77)
    a_counts = np.zeros(q**n)
    e_counts = {b: 0 for b in spec.histogram}
    for _ in range(draws):
        a, b = draw_classical_sample(spec, local)
        a_counts[a[0] * q + a[1]] += 1
        e_counts[centered(b - (2 * a[0] + 3 * a[1]), q)] += 1
    p = 1 / q**n
    assert np.abs(a_counts - draws * p).max() <= 5 * math.sqrt(draws * p * (1 - p))
    for value, count in spec.histogram.items():
        p = count / v
        assert abs(e_counts[value] - draws * p) <= 5 * math.sqrt(draws * p * (1 - p))


def test_implicit_subset_json_writes_null_and_round_trips(rng):
    spec = draw_sample_spec(FieldParams(11), 2, (3, 4), 50, NoiseModel.bounded_uniform(1), rng,
                            errors_as="histogram")
    spec = dataclasses.replace(spec, seed=5)
    text = spec_to_json(spec)
    assert json.loads(text)["subset"] is None
    back = spec_from_json(text)
    assert back.subset is None and back.v == 50 and back.histogram == spec.histogram
    assert spec_to_json(back) == text
    for subset, v in (("all", 50), (None, 121)):  # "all" is kept for v = q^n, null for v < q^n
        obj = dict(json.loads(text), subset=subset, v=v, errors={"histogram": [[0, v]]})
        with pytest.raises(ParameterError, match="needs v"):
            spec_from_json(json.dumps(obj))


# --- outcome distribution -------------------------------------------------


def test_noiseless_full_subset_closed_form():
    for q, n in [(3, 1), (5, 2), (7, 1), (101, 1)]:
        fp = FieldParams(q)
        spec = SampleSpec(fp=fp, n=n, s=(1,) * n, v=q**n, noise=NoiseModel.none(),
                          histogram={0: q**n})
        dist = outcome_distribution(spec)
        assert dist.p_correct == pytest.approx((q - 1) / q, abs=1e-12)
        assert dist.p_bot == pytest.approx(1 / q, abs=1e-12)
        assert dist.p_wrong <= 1e-12


def test_noiseless_dense_exactness_at_larger_sizes():
    # dense engine keeps the closed form to 1e-9 well beyond the tiny cases
    for q, n in [(31, 2), (3, 7), (13, 3)]:
        fp = FieldParams(q)
        s = tuple((i + 2) % q for i in range(n))
        spec = SampleSpec(fp=fp, n=n, s=s, v=q**n, noise=NoiseModel.none(),
                          histogram={0: q**n})
        per, p_bot, _ = _dense_category_probabilities(spec)
        assert abs(per.sum() - (q - 1) / q) <= 1e-9
        assert abs(p_bot - 1 / q) <= 1e-9


def test_outcome_distribution_matches_dense_oracle(rng):
    fp = FieldParams(5)
    for _ in range(10):
        v = int(rng.integers(1, 6))
        spec = draw_sample_spec(fp, 1, (3,), v, NoiseModel.bounded_uniform(1), rng)
        dist = outcome_distribution(spec)
        per, p_bot, _ = _dense_category_probabilities(spec)
        assert np.abs(per - dist.per_jstar_good).max() <= 1e-9
        assert abs(p_bot - dist.p_bot) <= 1e-9


def test_bot_probability_exact_for_any_noise(rng):
    for noise in (NoiseModel.none(), NoiseModel.bounded_uniform(2),
                  NoiseModel.gaussian(0.8, 2), NoiseModel.global_shift(NoiseModel.bounded_uniform(1))):
        spec = draw_sample_spec(FieldParams(11), 1, (4,), 11, noise, rng)
        assert abs(outcome_distribution(spec).p_bot - 1 / 11) <= 1e-12


def test_distribution_depends_only_on_error_counts(rng):
    fp = FieldParams(7)
    spec = draw_sample_spec(fp, 1, (3,), 7, NoiseModel.bounded_uniform(1), rng)
    base = outcome_distribution(spec)
    values = spec.errors.copy()
    rng.shuffle(values)
    shuffled = SampleSpec(fp=fp, n=1, s=(3,), v=7, noise=spec.noise, errors=values)
    other = outcome_distribution(shuffled)
    assert np.abs(base.per_jstar_good - other.per_jstar_good).max() <= 1e-12


def test_global_shift_keeps_full_subset_success_exact(rng):
    noise = NoiseModel.global_shift(NoiseModel.bounded_uniform(2))
    for _ in range(5):
        spec = draw_sample_spec(FieldParams(11), 1, (4,), 11, noise, rng)
        assert outcome_distribution(spec).p_correct == pytest.approx(10 / 11, abs=1e-12)


def test_proper_subset_noiseless_can_have_wrong_mass():
    fp = FieldParams(5)
    spec = SampleSpec(fp=fp, n=1, s=(2,), v=2, noise=NoiseModel.none(), subset=[0, 1], errors=[0, 0])
    dist = outcome_distribution(spec)
    assert dist.p_wrong > 0
    assert dist.p_correct + dist.p_bot < 1


def test_theoretical_bound_closed_constant():
    assert theoretical_bound(7**1, 1, 7, 1, "paper") == pytest.approx(1 / 20)
    assert theoretical_bound(50, 2, 101, 1, "paper") == pytest.approx(50 / (20 * 2 * 101))


def test_theoretical_bound_optimized_beats_closed_constant():
    # independent grid oracle
    grid = np.arange(1e-4, 0.25, 1e-4)
    best = float(np.max(grid * np.cos(2 * np.pi * grid) ** 2))
    got = theoretical_bound(101, 1, 101, 1, "optimized")
    assert got == pytest.approx(best / 1, rel=1e-12)
    assert got > theoretical_bound(101, 1, 101, 1, "paper")


def test_theoretical_bound_rejects_noiseless():
    with pytest.raises(ParameterError):
        theoretical_bound(7, 0, 7, 1)


def test_exhaustive_bound_and_engine_match_q7_full_subset():
    # all 3^7 error assignments at q=7, n=1, k=1, v=7
    fp = FieldParams(7)
    bound_paper = theoretical_bound(7, 1, 7, 1, "paper")
    bound_opt = theoretical_bound(7, 1, 7, 1, "optimized")
    noise = NoiseModel.bounded_uniform(1)
    worst = 1.0
    for assignment in itertools.product((-1, 0, 1), repeat=7):
        spec = SampleSpec(fp=fp, n=1, s=(3,), v=7, noise=noise, errors=assignment)
        p = outcome_distribution(spec).p_correct
        worst = min(worst, p)
        assert p >= bound_paper - 1e-12
        assert p >= bound_opt - 1e-12
    assert worst < 0.5  # noise genuinely hurts in the worst case


@st.composite
def small_specs(draw):
    q, n = draw(st.sampled_from([(2, 3), (3, 2), (5, 1), (7, 1), (11, 1), (3, 4)]))
    fp = FieldParams(q)
    s = tuple(draw(st.integers(0, q - 1)) for _ in range(n))
    v = draw(st.integers(1, q**n))
    key = draw(st.integers(0, 2**32 - 1))
    local = make_rng(key)
    if q == 2:
        noise = NoiseModel.bernoulli(draw(st.sampled_from((0.0, 0.1, 0.3))))
    else:
        noise = draw(st.sampled_from((NoiseModel.none(), NoiseModel.bounded_uniform(1))))
    return draw_sample_spec(fp, n, s, v, noise, local)


@given(small_specs())
def test_engine_equivalence_property(spec):
    dist = outcome_distribution(spec)
    per, p_bot, p_wrong_dense = _dense_category_probabilities(spec)
    tv = 0.5 * (np.abs(per - dist.per_jstar_good).sum()
                + abs(p_bot - dist.p_bot) + abs(p_wrong_dense - dist.p_wrong))
    assert tv <= 1e-9
    assert abs(dist.p_bot - 1 / spec.fp.q) <= 1e-12


# --- serialization ---------------------------------------------------------


def test_spec_json_round_trip_map(rng):
    spec = draw_sample_spec(FieldParams(7), 2, (1, 5), 10, NoiseModel.gaussian(1.0, 1), rng)
    spec = dataclasses.replace(spec, seed=99)
    back = spec_from_json(spec_to_json(spec))
    assert back.fp.q == 7 and back.n == 2 and back.s == (1, 5)
    assert np.array_equal(back.subset, spec.subset) and np.array_equal(back.errors, spec.errors)
    assert back.noise == spec.noise and back.seed == 99


def test_spec_json_round_trip_histogram(rng):
    noise = NoiseModel.global_shift(NoiseModel.bounded_uniform(2))
    spec = draw_sample_spec(FieldParams(11), 1, (3,), 11, noise, rng)
    back = spec_from_json(spec_to_json(spec))
    assert back.histogram == spec.histogram and back.subset is None
    assert outcome_distribution(back).p_correct == outcome_distribution(spec).p_correct


# A map spec with v < q^n, exactly as the tuple-and-dict representation wrote it.
PARENT_FORMAT_JSON = (
    '{"q": 5, "n": 2, "s": [1, 3], "subset": [[0, 3], [4, 3], [1, 2], [4, 0]], "v": 4, '
    '"noise": {"kind": "bounded-uniform", "k": 1}, '
    '"errors": {"map": [[[0, 3], -1], [[4, 3], 1], [[1, 2], -1], [[4, 0], 0]]}, "seed": 7}'
)


def test_spec_json_in_the_documented_format_loads_and_round_trips():
    spec = spec_from_json(PARENT_FORMAT_JSON)
    assert spec.subset.tolist() == [3, 23, 7, 20]  # row-major flat indices
    assert spec.errors.tolist() == [-1, 1, -1, 0]
    assert spec.v == 4 and spec.s == (1, 3) and spec.seed == 7
    assert spec_to_json(spec) == PARENT_FORMAT_JSON
    assert outcome_distribution(spec).p_correct == pytest.approx(0.028, abs=1e-15)


def test_spec_json_rejects_map_keys_off_the_subset():
    text = PARENT_FORMAT_JSON.replace("[[4, 0], 0]]", "[[4, 1], 0]]")
    with pytest.raises(ParameterError, match="keys must match"):
        spec_from_json(text)


def test_spec_arrays_reject_writes(rng):
    spec = draw_sample_spec(FieldParams(7), 2, (1, 5), 10, NoiseModel.bounded_uniform(1), rng)
    for arr in (spec.subset, spec.errors):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_spec_keeps_a_private_copy_of_its_arrays():
    subset, errors = np.array([0, 1]), np.array([0, 1])
    spec = SampleSpec(fp=FieldParams(5), n=1, s=(2,), v=2, noise=NoiseModel.bounded_uniform(1),
                      subset=subset, errors=errors)
    subset[0] = errors[0] = 4
    assert spec.subset.tolist() == [0, 1] and spec.errors.tolist() == [0, 1]


@pytest.mark.parametrize("v", [49, 20, 1])
def test_materialize_matches_state_built_from_the_json_map(v):
    fp = FieldParams(7)
    local = make_rng(400 + v)
    spec = draw_sample_spec(fp, 2, (3, 5), v, NoiseModel.bounded_uniform(1), local)
    pairs = json.loads(spec_to_json(spec))["errors"]["map"]
    assert len(pairs) == v
    reference = basis_state(
        [((*a, (a[0] * 3 + a[1] * 5 + e) % 7), 1.0) for a, e in pairs], fp
    )
    assert np.abs(materialize_dense(spec).amps - reference.amps).max() <= 1e-15


@pytest.mark.parametrize("q, n, noise", [
    (2, 19, NoiseModel.bernoulli(0.1)), (3, 5, NoiseModel.bounded_uniform(1)),
    (7, 3, NoiseModel.bounded_uniform(1)), (101, 2, NoiseModel.bounded_uniform(2)),
])
def test_materialize_all_of_fq_n_matches_the_enumerated_vectors(q, n, noise):
    # the outer sum over registers places every amplitude where the table of all q^n vectors does
    local = make_rng(500 + q)
    s = (0,) + tuple(int(x) for x in local.integers(0, q, size=n - 1))
    spec = draw_sample_spec(FieldParams(q), n, s, q**n, noise, local)
    flat = np.arange(q**n) * q + (_vector_table(q, n) @ np.asarray(s) + spec.errors) % q
    expected = np.zeros(q ** (n + 1), dtype=np.complex128)
    expected[flat] = 1.0 / math.sqrt(q**n)
    assert np.array_equal(materialize_dense(spec).amps, expected)


def test_sample_stream_yields_fresh_errors(rng):
    stream = sample_stream(FieldParams(7), 1, (3,), 7, NoiseModel.bounded_uniform(1), rng)
    histograms = {tuple(sorted(stream().error_histogram().items())) for _ in range(25)}
    assert len(histograms) > 1


def test_outcome_law_is_computed_once_per_spec(rng):
    spec = draw_sample_spec(FieldParams(11), 2, (4, 9), 121, NoiseModel.bounded_uniform(1), rng)
    first = outcome_distribution(spec)
    assert outcome_distribution(spec) is first
    copy = dataclasses.replace(spec)
    fresh = outcome_distribution(copy)
    assert fresh is not first
    assert fresh.p_correct == first.p_correct and fresh.p_wrong == first.p_wrong
    assert np.array_equal(fresh.per_jstar_good.view(np.uint64), first.per_jstar_good.view(np.uint64))


def test_memoized_outcome_law_is_read_only(rng):
    spec = draw_sample_spec(FieldParams(7), 1, (3,), 7, NoiseModel.bounded_uniform(1), rng)
    per = outcome_distribution(spec).per_jstar_good
    with pytest.raises(ValueError):
        per[1] = 1.0
