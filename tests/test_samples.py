import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditlearn import samples
from quditlearn.dense import StateError, weighted_index
from quditlearn.experiments import ExperimentConfig, run_experiment
from quditlearn.field import FieldParams, ParameterError, centered, phase_table
from quditlearn.learners import field_bv, sis_sample_state
from quditlearn.samples import (
    NoiseModel,
    SampleSpec,
    _vectors_at,
    dense_outcome_distribution,
    draw_classical_sample,
    draw_sample_spec,
    materialize_dense,
    outcome_distribution,
    spec_drawer,
    spec_from_json,
    spec_to_json,
    theoretical_bound,
    uniform_vector,
)

from conftest import basis_state, make_rng


# --- noise models ---------------------------------------------------------


def test_gaussian_weights_normalized_and_shaped():
    values, weights = NoiseModel.gaussian(1.0, 2).distribution(11)
    assert values == (-2, -1, 0, 1, 2)
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    assert weights[2] > weights[1] == weights[3] > weights[0] == weights[4]


def test_the_cached_noise_cdf_is_read_only():
    # every later error draw at a (noise, q) reads the one cached CDF
    for noise in (NoiseModel.gaussian(1.5, 3), NoiseModel.global_shift(NoiseModel.bounded_uniform(2))):
        cdf = samples._distribution(noise, 11)[2]
        assert not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0] = 0.0


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


@pytest.mark.parametrize("fields", [
    {"s": (1.5,)},  # field_bv would "recover" (1.5,)
    {"s": (True,)},
    {"v": 5.0},
    {"n": True},
    {"noise": NoiseModel.bounded_uniform(1), "histogram": {0: 2.5, 1: 2.5}},  # p_correct 0.3
    {"histogram": {0.0: 5}},
    {"histogram": {0: True}, "v": 1},
])
def test_spec_fields_must_be_integers(fields, rng):
    spec = {"fp": FieldParams(5), "n": 1, "s": (1,), "v": 5, "noise": NoiseModel.none(), "histogram": {0: 5}}
    SampleSpec(**spec)
    with pytest.raises(ParameterError, match="must be integers"):
        SampleSpec(**spec | fields)
    if "histogram" not in fields:  # the draw runs the constructor's argument check
        args = spec | fields
        with pytest.raises(ParameterError, match="must be integers"):
            draw_sample_spec(args["fp"], args["n"], args["s"], args["v"], args["noise"], rng)


_DRAW_CASES = [  # (field, n, noise); the two Bernoulli cases share one (q, support)
    (FieldParams(2), 4, NoiseModel.bernoulli(0.2)),
    (FieldParams(2), 3, NoiseModel.bernoulli(0.0)),
    (FieldParams(3), 2, NoiseModel.bounded_uniform(1)),
    (FieldParams(7), 2, NoiseModel.none()),
    (FieldParams(7), 2, NoiseModel.bounded_uniform(1)),
    (FieldParams(11), 1, NoiseModel.gaussian(1.5, 3)),
    (FieldParams(11), 2, NoiseModel.global_shift(NoiseModel.bounded_uniform(2))),
    (FieldParams(101), 2, NoiseModel.gaussian(1.0, 2)),
]


def _drawn_specs(count: int, key: int):
    """Specs drawn over every noise kind, both error forms, full and proper subsets."""
    local = make_rng(key)
    for i in range(count):
        fp, n, noise = _DRAW_CASES[i % len(_DRAW_CASES)]
        qn = fp.q**n
        v = qn if i % 3 == 0 else int(local.integers(1, qn))
        s = tuple(int(x) for x in local.integers(0, fp.q, size=n))
        yield draw_sample_spec(fp, n, s, v, noise, local, errors_as=("map", "histogram")[i % 2])


def test_every_drawn_spec_passes_the_full_check():
    # drawn specs skip the constructor's data check; this test stands in for it
    kinds = set()
    for spec in _drawn_specs(160, 71):
        rebuilt = dataclasses.replace(spec)  # the public constructor, with every check
        for field in ("fp", "n", "s", "v", "noise", "histogram", "seed"):
            assert getattr(rebuilt, field) == getattr(spec, field)
        for field in ("subset", "errors"):
            drawn, checked = getattr(spec, field), getattr(rebuilt, field)
            assert (drawn is None) == (checked is None)
            if drawn is not None:
                assert np.array_equal(drawn, checked)
                assert drawn.dtype == np.int64 and not drawn.flags.writeable
        kinds.add((spec.noise.kind, spec.subset is not None, spec.errors is not None, spec.v == spec.fp.q**spec.n))
    assert len({k[0] for k in kinds}) == 5  # every noise kind
    assert {k[1:] for k in kinds} >= {(True, True, False), (False, True, True), (False, False, False),
                                     (False, False, True)}  # proper and full subsets, map and histogram


def test_error_draws_and_dense_supports_match_the_gather_formulas():
    # _draw_errors offsets a CDF index by the first value and materialize_dense builds the support in
    # place; both must give the arrays of the formulas they replaced, for every noise kind
    for fp, _, noise in _DRAW_CASES:
        table = samples._distribution(noise, fp.q)
        values, _, cdf = table
        for size in (1, 5, 343):
            new_rng, old_rng = make_rng(size), make_rng(size)
            drawn = samples._draw_errors(table, size, new_rng)
            if len(values) == 1:
                old = np.full(size, values[0], dtype=np.int64)
            else:
                old = np.asarray(values, dtype=np.int64)[np.searchsorted(cdf, old_rng.random(size), side="right")]
            assert drawn.dtype == np.int64 and not drawn.flags.writeable and np.array_equal(drawn, old)
            assert new_rng.random() == old_rng.random()
    local = make_rng(73)
    for fp, n, noise in _DRAW_CASES:
        q = fp.q
        every = np.arange(-2 * q, 2 * q)
        assert np.array_equal(samples._residues(q)[every], every % q)
        for v in (q**n, q**n // 2, 1) * 5:
            s = tuple(int(x) for x in local.integers(0, q, size=n))
            spec = draw_sample_spec(fp, n, s, v, noise, local)
            idx = spec.subset if spec.subset is not None else np.arange(v, dtype=np.int64)
            dots = _vectors_at(idx, q, n) @ np.asarray(s, dtype=np.int64)
            errs = spec.errors if spec.errors is not None else next(iter(spec.histogram))
            support = materialize_dense(spec).support
            assert support.dtype == np.int64 and np.array_equal(support, idx * q + (dots + errs) % q)
    assert {noise.kind for _, _, noise in _DRAW_CASES} == set(samples._NOISE_KEYS)  # all five kinds


def _formula_over_the_spec_values(spec):
    """The law written out: one phase row per histogram value, in the histogram's order."""
    q = spec.fp.q
    hist = spec.error_histogram()
    values = np.fromiter(hist.keys(), dtype=np.int64)
    counts = np.fromiter(hist.values(), dtype=np.float64)
    sums = counts @ phase_table(q, values % q, np.arange(1, q, dtype=np.int64))
    per = np.zeros(q, dtype=np.float64)
    per[1:] = np.abs(sums) ** 2 / (float(spec.v) * float(q) ** (spec.n + 1))
    p_correct = float(per[1:].sum())
    return per, p_correct, 1.0 / q, max(1.0 - p_correct - 1.0 / q, 0.0)


def test_outcome_law_reads_one_table_per_support_bit_for_bit():
    checked = 0
    for spec in _drawn_specs(240, 72):
        per, p_correct, p_bot, p_wrong = _formula_over_the_spec_values(spec)
        law = outcome_distribution(spec)
        assert np.array_equal(law.per_jstar_good, per)
        assert (law.p_correct, law.p_bot, law.p_wrong) == (p_correct, p_bot, p_wrong)
        checked += 1
    assert checked >= 200
    for spec in _drawn_specs(40, 73):
        per = _formula_over_the_spec_values(spec)[0]
        assert np.array_equal(outcome_distribution(spec).per_jstar_good, per)


def _exact_correct_mass(spec) -> Fraction:
    """sum_{j* != 0} P(good at j*) as an exact fraction, by Parseval over j*."""
    q, v = spec.fp.q, spec.v
    collisions = sum(c * c for c in spec.error_histogram().values())
    return Fraction(q * collisions - v * v, v * q ** (spec.n + 1))


def test_exact_correct_mass_matches_the_float_law():
    kinds = set()
    for spec in _drawn_specs(240, 74):
        law = outcome_distribution(spec)
        assert law.correct_mass == float(_exact_correct_mass(spec))  # rounded once
        assert abs(law.p_correct - law.correct_mass) <= 1e-12
        kinds.add((spec.noise.kind, spec.errors is not None, spec.v == spec.fp.q**spec.n))
    assert len({k[0] for k in kinds}) == 5 and {k[1:] for k in kinds} == set(itertools.product((False, True), repeat=2))
    # wide supports, at q = 8191 and 12289
    local = make_rng(75)
    wide = 0
    for q, noise in ((8191, NoiseModel.bounded_uniform(4095)), (12289, NoiseModel.gaussian(2000.0, 6144))):
        for v, errors_as in ((1, "map"), (40, "histogram"), (90, "map"), (120, "histogram")):
            spec = draw_sample_spec(FieldParams(q), 1, (int(local.integers(q)),), v, noise, local, errors_as=errors_as)
            law = outcome_distribution(spec)
            assert law.correct_mass == float(_exact_correct_mass(spec))
            assert abs(law.p_correct - law.correct_mass) <= 1e-12
            wide += 1
    assert wide == 8


def test_outcome_law_rejects_a_modulus_beyond_2_to_the_26_before_any_array():
    # the exact mass builds no array, so an analytic attempt decides at any q; only the per-j* law is q-long
    q = 2**26 + 15  # the least prime above 2**26
    spec = SampleSpec(fp=FieldParams(q), n=1, s=(1,), v=q, noise=NoiseModel.bounded_uniform(1),
                      histogram={-1: 2, 0: q - 3, 1: 1})
    tracemalloc.start()
    try:
        law = outcome_distribution(spec)
        assert law.correct_mass == float(_exact_correct_mass(spec)) and law.p_bot == 1 / q
        with pytest.raises(ParameterError, match="q too large"):
            law.p_correct
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a q-long float array would take 512 MiB


class _FixedUniforms:
    """A generator stub: its bit generator's next_double (field_bv's uniform) returns the given uniforms in turn;
    next_uint32 (uniform_vector's words) is a real generator's."""

    def __init__(self, uniforms, key: int):
        uniforms, ct = iter(uniforms), make_rng(key).bit_generator.ctypes
        self.bit_generator = SimpleNamespace(ctypes=ct._replace(next_double=lambda state: next(uniforms)))


@pytest.mark.parametrize("count", [3_000_000_000, 4_000_000_000])
def test_numpy_histogram_counts_are_stored_as_python_ints(count):
    # the law squares each count: 3e9**2 overflows int64 (a wrong, negative mass), 4e9 does not fit in a C long
    spec = SampleSpec(fp=FieldParams(101), n=5, s=(1, 2, 3, 4, 5), v=count, noise=NoiseModel.none(),
                      histogram={np.int64(0): np.int64(count)})
    assert [type(x) for x in (*spec.histogram, *spec.histogram.values())] == [int, int]
    assert outcome_distribution(spec).correct_mass == 100 * count / 101**6  # (q - 1) v / q^(n+1), rounded once


def test_field_bv_redraws_a_wrong_candidate_that_is_the_secret():
    # q^n = 3 and correct mass 0: one uniform, then vectors until one is not the secret, in that order
    spec = SampleSpec(fp=FieldParams(3), n=1, s=(1,), v=3, noise=NoiseModel.bounded_uniform(1),
                      histogram={-1: 1, 0: 1, 1: 1})
    law = outcome_distribution(spec)
    assert law.correct_mass == 0.0 and law.p_bot == 1 / 3

    def reference(key):  # the calls field_bv makes on a wrong outcome whose first vector is the secret
        rng = make_rng(key)
        return rng.random(), uniform_vector(3, 1, rng), uniform_vector(3, 1, rng), rng

    key = next(k for k in itertools.count()
               if (r := reference(k))[0] >= law.p_bot and r[1] == spec.s and r[2] != spec.s)
    _, _, second, after = reference(key)
    rng = make_rng(key)
    assert field_bv(spec, rng).secret == second
    assert _state_of(rng) == _state_of(after)


def test_field_bv_decides_by_the_exact_masses_where_the_float_law_differs():
    # q = 3, n = 2, v = 7: the float p_correct lies one rounding step below the exact mass 2/27
    spec = SampleSpec(fp=FieldParams(3), n=2, s=(2, 1), v=7, noise=NoiseModel.bounded_uniform(1),
                      histogram={-1: 2, 0: 4, 1: 1})
    law = outcome_distribution(spec)
    assert law.p_correct == 0.07407407407407404 < law.correct_mass == float(Fraction(2, 27))
    assert field_bv(spec, _FixedUniforms([0.07407407407407404], 0)).secret == spec.s
    between = 0
    for i, spec in enumerate(_drawn_specs(240, 76)):
        law = outcome_distribution(spec)
        correct_cut, bot_cut = law.correct_mass, law.correct_mass + law.p_bot
        # the float law's cuts, and the exact cuts with the uniforms one step either side
        uniforms = {law.p_correct, law.p_correct + law.p_bot}
        for cut in (correct_cut, bot_cut):
            uniforms |= {math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)}
        for u in uniforms:
            out = field_bv(spec, _FixedUniforms([u], i))
            got = "bot" if out.is_bot else "correct" if out.secret == spec.s else "wrong"
            expected = "correct" if u < correct_cut else "bot" if u < bot_cut else "wrong"
            assert got == expected, (spec.error_histogram(), u)
        between += law.p_correct < law.correct_mass
    # at u = p_correct on these laws the float law would give bot, and the exact law gives the secret
    assert between >= 20


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


def test_materialize_checks_the_cap_before_building_any_index_array(monkeypatch):
    def no_index_array(*args):
        raise AssertionError("an index array was built before the cap check")

    monkeypatch.setattr(samples, "_dots_over_space", no_index_array)
    monkeypatch.setattr(samples, "_row_starts", no_index_array)
    fp, n = FieldParams(101), 3  # 101^4 amplitudes; each index array would hold 101^3 int64 entries
    spec = SampleSpec(fp=fp, n=n, s=(1, 2, 3), v=101**n, noise=NoiseModel.none(), histogram={0: 101**n})
    with pytest.raises(StateError, match="cap"):
        materialize_dense(spec)
    with pytest.raises(StateError, match="cap"):
        sis_sample_state(fp, n, (1, 0, -1))


# --- classical draws ------------------------------------------------------


def _state_of(rng):
    """A generator's full state with its arrays as lists, so two states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


# At 2**31 + 1 about half of all 32-bit words are rejected, at 2**32 every word
# is a draw as it is, and above 2**32 NumPy's 64-bit rule runs, on the array draw.
# uniform_vector reads any bit generator's next_uint32, so two cases run on others.
@pytest.mark.parametrize("q, bit_generator", [
    *(pytest.param(q, "Philox", id=str(q)) for q in (2, 3, 101, 257, 65537, 2**31 - 1, 2**31 + 1, 2**32 - 5,
                                                    2**32, 2**32 + 15)),
    (101, "PCG64"),
    (2**31 + 1, "MT19937"),
])
def test_uniform_vector_is_the_array_draw(q, bit_generator):
    # Reports are pinned to the stream of rng.integers(0, q, size=n); a numpy
    # release that moves either draw must fail here, not in a golden.
    scalar, array = (make_rng(0x5CA1A) if bit_generator == "Philox" else
                     np.random.Generator(getattr(np.random, bit_generator)(0x5CA1A)) for _ in range(2))
    cut = samples._SCALAR_DRAWS_UP_TO
    # odd sizes leave a buffered 32-bit half-word behind; n = cut + 1 and 20 take the array draw
    for n in (1, 2, 3, 4, 3, 1, 2, cut, 4, cut + 1, 1, 20, 2, cut - 1):
        assert uniform_vector(q, n, scalar) == tuple(array.integers(0, q, size=n).tolist())
        assert scalar.random() == array.random()
        ct = scalar.bit_generator.ctypes  # field_bv's lock-free uniform
        assert ct.next_double(ct.state) == array.random()
        assert uniform_vector(q, n, scalar) == tuple(array.integers(0, q, size=n).tolist())
        assert scalar.multinomial(50, [0.2, 0.3, 0.5]).tolist() == array.multinomial(50, [0.2, 0.3, 0.5]).tolist()
        assert _state_of(scalar) == _state_of(array)


@pytest.mark.parametrize("histogram", [
    {-2: 3, 0: 1, 1: 40, 2: 7, -1: 9},  # several bins, not in value order
    {1: 11},  # a single bin still takes its uniform
    {-1: 2**60 + 1, 0: 3, 1: 2**55 + 7, 2: 2**54 - 1},  # above 2**53 the float running sums round
    {0: 2**70 + 1, -2: 1, 1: 2**66 + 3},  # counts beyond int64
])
def test_histogram_classical_draw_is_the_weighted_index_draw(histogram):
    # a and e as uniform_vector and values[weighted_index(counts, rng)] draw them, with the same state after
    q, n, s = 101, 12, tuple(range(1, 13))
    spec = SampleSpec(fp=FieldParams(q), n=n, s=s, v=sum(histogram.values()), noise=NoiseModel.bounded_uniform(2),
                      histogram=histogram)
    values, counts = tuple(histogram), np.array(list(histogram.values()), dtype=np.float64)
    for seed in range(1_200):
        drawn, reference = make_rng(seed), make_rng(seed)
        a, b = draw_classical_sample(spec, drawn)
        a_ref = uniform_vector(q, n, reference)
        e_ref = values[weighted_index(counts, reference)]
        assert a == a_ref and centered(b - sum(x * y for x, y in zip(a, s)), q) == e_ref
        assert _state_of(drawn) == _state_of(reference)


_GLOBAL = NoiseModel.global_shift(NoiseModel.bounded_uniform(1))


@pytest.mark.parametrize("q, n, v, noise, errors_as", [
    (7, 3, 343, NoiseModel.bounded_uniform(1), "map"),  # an error map over all of F_q^n (array a)
    (11, 2, 121, NoiseModel.gaussian(1.0, 2), "map"),  # the same with scalar draws of a
    (11, 2, 50, NoiseModel.bounded_uniform(1), "map"),  # an explicit proper subset
    (2, 6, 40, NoiseModel.bernoulli(0.3), "map"),
    (101, 2, 101**2, NoiseModel.gaussian(1.0, 2), "histogram"),  # error counts
    (11, 2, 50, NoiseModel.bounded_uniform(1), "histogram"),  # an implicit proper subset
    (2, 6, 64, NoiseModel.bernoulli(0.3), "histogram"),
    (4099, 5, 4099**5, NoiseModel.bounded_uniform(1), "histogram"),  # v > 2**53: the running sums round
    (13, 2, 169, _GLOBAL, "map"),  # one shared value
    (13, 2, 60, _GLOBAL, "map"),
    (13, 2, 60, _GLOBAL, "histogram"),
    (4099, 5, 4099**5, _GLOBAL, "histogram"),
    (7, 2, 49, NoiseModel.none(), "map"),
    (7, 2, 20, NoiseModel.none(), "map"),
    (7, 2, 20, NoiseModel.none(), "histogram"),
    (5, 2, 25, NoiseModel.bounded_uniform(0), "map"),  # one value: no error draw
    (5, 2, 10, NoiseModel.bounded_uniform(0), "map"),
    (5, 2, 25, NoiseModel.bounded_uniform(0), "histogram"),
    (7, 2, 49, NoiseModel.global_shift(NoiseModel.none()), "map"),
    (101, 1, 3, NoiseModel.gaussian(3.0, 9), "histogram"),  # 3 errors over 19 bins: zero counts in the list
    (2, 6, 64, NoiseModel.bernoulli(0.0), "histogram"),  # counts (64, 0): the last bin is empty
])
def test_classical_drawer_is_the_classical_draw_of_a_fresh_spec(q, n, v, noise, errors_as):
    fp = FieldParams(q)
    s = tuple(int(x) for x in make_rng(q + n + v).integers(0, q, size=n))
    draw = spec_drawer(fp, n, s, v, noise, errors_as)
    classical = samples.classical_drawer(fp, n, s, v, noise, errors_as)
    for seed in range(1_000):
        oracle, reference = make_rng(seed), make_rng(seed)
        assert classical(oracle) == draw_classical_sample(draw(reference), reference)
        assert _state_of(oracle) == _state_of(reference)


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
    dense = dense_outcome_distribution(explicit)
    for dist in (law, twin):
        assert dense.total_variation(dist) <= 1e-9


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
        dense = dense_outcome_distribution(spec)
        assert abs(dense.p_correct - (q - 1) / q) <= 1e-9
        assert abs(dense.p_bot - 1 / q) <= 1e-9


def test_outcome_distribution_matches_dense_oracle(rng):
    fp = FieldParams(5)
    for _ in range(10):
        v = int(rng.integers(1, 6))
        spec = draw_sample_spec(fp, 1, (3,), v, NoiseModel.bounded_uniform(1), rng)
        dist = outcome_distribution(spec)
        dense = dense_outcome_distribution(spec)
        assert np.abs(dense.per_jstar_good - dist.per_jstar_good).max() <= 1e-9
        assert abs(dense.p_bot - dist.p_bot) <= 1e-9


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
    assert dense_outcome_distribution(spec).total_variation(dist) <= 1e-9
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
    flat = np.arange(q**n) * q + (_vectors_at(np.arange(q**n), q, n) @ np.asarray(s) + spec.errors) % q
    expected = np.zeros(q ** (n + 1), dtype=np.complex128)
    expected[flat] = 1.0 / math.sqrt(q**n)
    assert np.array_equal(materialize_dense(spec).amps, expected)


def test_spec_drawer_yields_fresh_errors(rng):
    stream = partial(spec_drawer(FieldParams(7), 1, (3,), 7, NoiseModel.bounded_uniform(1)), rng)
    histograms = {tuple(sorted(stream().error_histogram().items())) for _ in range(25)}
    assert len(histograms) > 1


@pytest.mark.parametrize("config", [
    dict(problem="lwe", q=101, n=2, noise=NoiseModel.gaussian(1.0, 2), L=10, M=1),
    dict(problem="lwe", q=7, n=2, noise=NoiseModel.bounded_uniform(1), L=3, M=2, engine="dense"),
    dict(problem="lpn", q=2, n=4, noise=NoiseModel.bernoulli(0.1), L=9),
], ids=["lwe-analytic", "lwe-dense", "lpn"])
def test_a_run_checks_its_sample_arguments_once(monkeypatch, config):
    calls = []
    check = samples._check_arguments
    monkeypatch.setattr(samples, "_check_arguments", lambda *args: calls.append(args) or check(*args))
    run_experiment(ExperimentConfig(trials=40, seed=3, **config))
    # one check per drawer: the specs of every trial, and lwe's test samples of every trial
    assert len(calls) == (2 if config["problem"] == "lwe" else 1)


@pytest.mark.parametrize("args, errors_as, match", [
    ((FieldParams(5), 1, (1,), 6, NoiseModel.none()), "map", "subset size"),
    ((FieldParams(5), 1, (1,), 5.0, NoiseModel.none()), "histogram", "integers"),
    ((FieldParams(5), 0, (), 1, NoiseModel.none()), "map", "dimension"),
    ((FieldParams(5), 2, (1, 5), 25, NoiseModel.none()), "map", "secret"),
    ((FieldParams(5), 1, (1,), 5, NoiseModel.bounded_uniform(3)), "histogram", "exceeds q"),
    ((FieldParams(5), 1, (1,), 5, NoiseModel.bernoulli(0.1)), "map", "q = 2"),
    ((FieldParams(2), 64, (0,) * 64, 2**64, NoiseModel.bernoulli(0.1)), "histogram", "largest count"),
    ((FieldParams(101), 10, (0,) * 10, 2_000_000, NoiseModel.bounded_uniform(1)), "map", "indexed in int64"),
    ((FieldParams(5), 1, (1,), 5, NoiseModel.none()), "auto", "errors_as"),
])
def test_spec_drawer_checks_its_arguments_before_any_draw(args, errors_as, match):
    for drawer in (spec_drawer, samples.classical_drawer):
        with pytest.raises(ParameterError, match=match):
            drawer(*args, errors_as)
    rng = make_rng(17)
    before = _state_of(rng)
    with pytest.raises(ParameterError, match=match):
        draw_sample_spec(*args, rng, errors_as=errors_as)
    assert _state_of(rng) == before


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
