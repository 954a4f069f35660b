import csv
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditlearn.experiments import (
    CSV_COLUMNS,
    CSV_HEADER,
    ExperimentConfig,
    _expected_iteration_success,
    _rekey,
    run_experiment,
    sweep,
    wilson_interval,
    write_csv,
)
from quditlearn.field import ParameterError
from quditlearn.samples import NoiseModel


def lwe_config(**overrides):
    base = dict(problem="lwe", q=5, n=2, trials=400, seed=7, engine="analytic",
                noise=NoiseModel.none(), L=1, M=0)
    base.update(overrides)
    return ExperimentConfig(**base)


@given(st.integers(0, 500), st.integers(1, 500))
def test_wilson_interval_brackets_rate(successes, trials):
    if successes > trials:
        successes = trials
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_wilson_interval_widens_with_less_data():
    lo1, hi1 = wilson_interval(10, 20)
    lo2, hi2 = wilson_interval(100, 200)
    assert hi1 - lo1 > hi2 - lo2


def test_noiseless_lwe_experiment_matches_closed_form():
    report = run_experiment(lwe_config(trials=4000))
    assert report.exact_probability == pytest.approx(0.8, abs=1e-12)
    sigma = math.sqrt(0.8 * 0.2 / 4000)
    assert abs(report.empirical_rate - 0.8) <= 3 * sigma
    assert report.wilson_lo <= report.empirical_rate <= report.wilson_hi


def test_expected_iteration_success_formula_against_simulation():
    # noisy LWE at q=7, k=1: empirical single-attempt rate ~ formula
    config = lwe_config(q=7, n=1, trials=20_000, noise=NoiseModel.bounded_uniform(1), L=1, M=0)
    report = run_experiment(config)
    expected = _expected_iteration_success(7, 1, 7, NoiseModel.bounded_uniform(1))
    sigma = math.sqrt(expected * (1 - expected) / config.trials)
    assert report.exact_probability == pytest.approx(expected, abs=1e-12)
    assert abs(report.empirical_rate - expected) <= 4 * sigma


@pytest.mark.parametrize("engine", ["analytic", "dense"])
def test_proper_subset_rate_matches_exact_probability_on_both_engines(engine):
    # v = 20 < 7^2: the analytic engine leaves the subset implicit, the dense one draws it
    config = lwe_config(q=7, n=2, v=20, trials=3000, noise=NoiseModel.bounded_uniform(1), k=1,
                        engine=engine)
    report = run_experiment(config)
    exact = report.exact_probability
    assert exact == _expected_iteration_success(7, 2, 20, NoiseModel.bounded_uniform(1))
    assert abs(report.empirical_rate - exact) <= 5 * math.sqrt(exact * (1 - exact) / config.trials)


def test_exact_probability_at_least_paper_bound():
    for k in (1, 2):
        config = lwe_config(q=101, n=1, trials=50, noise=NoiseModel.bounded_uniform(k), L=1, M=0)
        report = run_experiment(config)
        assert report.bound_paper == pytest.approx(1 / (20 * k), abs=1e-12)
        assert report.exact_probability >= report.bound_paper
        assert report.bound_optimized >= report.bound_paper


def test_identical_config_and_seed_reproduce_report():
    a = run_experiment(lwe_config(trials=800, noise=NoiseModel.bounded_uniform(1), L=3, M=1, k=1))
    b = run_experiment(lwe_config(trials=800, noise=NoiseModel.bounded_uniform(1), L=3, M=1, k=1))
    assert a.canonical_text() == b.canonical_text()
    assert a.canonical_text().count("\n") == len(CSV_COLUMNS) - 3  # no wall_time_ms, and no error line


def test_rekeyed_generator_replays_a_fresh_philox_per_trial():
    # run_experiment re-keys one generator per trial; every report is pinned to
    # the stream of a fresh Generator(Philox(key=seed XOR index)) per trial.
    rng = np.random.Generator(np.random.Philox())
    trials = [(7, 0), (7, 1), (2**63 + 5, 3), (0, 2**63), (2**64 - 1, 2**63), (7, 2)]  # bit 63 set in some keys
    for seed, index in trials:
        fresh = np.random.Generator(np.random.Philox(key=(seed ^ index) & (2**64 - 1)))
        reused = _rekey(rng, seed, index)
        for draw in (
            lambda g: [int(g.integers(101)) for _ in range(3)],  # ends on a buffered 32-bit half-word
            lambda g: g.random(),
            lambda g: g.multinomial(40, [0.25, 0.75]).tolist(),
            lambda g: g.integers(0, 257, size=4).tolist(),  # 3 + 4 draws: a half-word the next trial must not see
        ):
            assert draw(reused) == draw(fresh)
        assert reused.bit_generator.state["has_uint32"] == fresh.bit_generator.state["has_uint32"] == 1
        assert reused.bit_generator.state["uinteger"] == fresh.bit_generator.state["uinteger"]


def test_wilson_coverage_over_independent_seeds():
    # 95% nominal intervals must contain the exact probability in >= 93 of 100 runs
    covered = 0
    for seed in range(100):
        report = run_experiment(lwe_config(trials=400, seed=seed))
        if report.wilson_lo <= 0.8 <= report.wilson_hi:
            covered += 1
    assert covered >= 93


def test_sis_experiment_exact_formula():
    config = ExperimentConfig(problem="sis", q=7, n=2, trials=200, seed=3,
                              engine="dense", k=1, L=3, s=(1, 6))
    report = run_experiment(config)
    # coordinate 1 (value 6 = -1): correct candidate j=1 is tried after j=-1, j=0
    expected = (1 - 7**-3) ** 0 * (1 - 7**-3) ** 2
    assert report.exact_probability == pytest.approx(expected, abs=1e-12)
    assert report.empirical_rate >= report.bound_paper - 3 * math.sqrt(0.02 / 200)


def test_lpn_experiment_exact_value():
    config = ExperimentConfig(problem="lpn", q=2, n=4, trials=300, seed=5,
                              engine="dense", noise=NoiseModel.bernoulli(0.1), L=9)
    report = run_experiment(config)
    eta = 0.1
    assert report.exact_probability == pytest.approx((1 - 2 * eta) ** 2 / 2 + 2 * eta * (1 - eta) / 16, abs=1e-12)
    assert report.bound_paper == pytest.approx(0.5 * (1 - 2 * eta) ** 2, abs=1e-12)
    assert report.exact_probability >= report.bound_paper


def test_ring_experiment_reports_closed_form():
    config = ExperimentConfig(problem="ring-global", q=13, n=2, trials=400, seed=11,
                              engine="dense", m=4, noise=NoiseModel.global_shift(NoiseModel.none()))
    report = run_experiment(config)
    p = (12 / 13) ** 2
    assert report.exact_probability == pytest.approx(p, abs=1e-12)
    sigma = math.sqrt(p * (1 - p) / 400)
    assert abs(report.empirical_rate - p) <= 3.5 * sigma


def test_lwr_experiment_bound_row():
    config = ExperimentConfig(problem="lwr", q=257, n=1, trials=60, seed=13,
                              engine="analytic", p=16, L=120, M=3)
    report = run_experiment(config)
    assert report.exact_probability >= report.bound_paper == pytest.approx(16 / (12 * 256))
    assert report.bound_optimized > report.bound_paper


def test_m_sweep_tracks_wrong_candidate_acceptance():
    # wrong-candidate acceptance rates across M, via the learner pipeline:
    # rate of *wrong* final outputs at L=1 equals p_wrong * ((2k+1)/q)^M
    from quditlearn.samples import classical_drawer, spec_drawer
    from quditlearn.learners import lwe_learn
    from quditlearn.field import FieldParams
    from conftest import make_rng

    fp = FieldParams(11)
    s = (7,)
    p_wrong = 1 - _expected_iteration_success(11, 1, 11, NoiseModel.bounded_uniform(1)) - 1 / 11
    for M in (1, 2):
        rng = make_rng(700 + M)
        n_runs = 12_000
        wrong = 0
        for _ in range(n_runs):
            src = partial(spec_drawer(fp, 1, s, 11, NoiseModel.bounded_uniform(1)), rng)
            out = lwe_learn(1, src, classical_drawer(fp, 1, s, 11, NoiseModel.bounded_uniform(1)), rng, M, 1)
            wrong += (not out.is_bot) and out.secret != s
        expected = p_wrong * (3 / 11) ** M
        sigma = math.sqrt(expected * (1 - expected) / n_runs)
        assert abs(wrong / n_runs - expected) <= 4 * sigma


def test_k_sweep_exact_success_monotone():
    values = [
        _expected_iteration_success(101, 1, 101, NoiseModel.bounded_uniform(k))
        for k in range(1, 6)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sweep_csv_contract(tmp_path):
    path = tmp_path / "out.csv"
    configs = [
        lwe_config(trials=100),
        lwe_config(trials=100, q=4),  # invalid: q composite -> per-row failure
        lwe_config(trials=100, q=7, n=1),
    ]
    # q=4 fails at FieldParams; build configs lazily to let sweep record it
    reports = sweep([configs[0], configs[2]], csv_path=str(path))
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 3
    assert [row.split(",")[1] for row in text[1:]] == ["5", "7"]
    assert all(r.error is None for r in reports)


def test_sweep_records_partial_failures(tmp_path):
    bad = ExperimentConfig(problem="lwr", q=31, n=1, trials=10, seed=1, p=None)
    good = lwe_config(trials=50)
    reports = sweep([bad, good], csv_path=str(tmp_path / "mixed.csv"))
    assert reports[0].error is not None and "p" in reports[0].error
    assert reports[1].error is None
    rows = (tmp_path / "mixed.csv").read_text().splitlines()
    assert len(rows) == 3  # header + one blank-metrics row + one full row


def test_failed_sweep_row_keeps_its_error_in_the_csv(tmp_path):
    bad = ExperimentConfig(problem="lwr", q=31, n=1, trials=10, seed=1, p=None)
    good = lwe_config(trials=50)
    path = tmp_path / "mixed.csv"
    reports = sweep([bad, good], csv_path=str(path))
    with open(path, newline="") as handle:
        header, failed, ran = list(csv.reader(handle))
    assert header[-1] == "error"
    error = failed[CSV_COLUMNS.index("error")]
    assert error == "ParameterError: lwr needs the rounding modulus p"
    assert reports[0].canonical_text().endswith(f"\nerror: {error}")  # the text the report prints
    assert failed[:12] == reports[0].csv_row()[:12] and failed[12:-1] == [""] * 7
    assert ran == reports[1].csv_row() and ran[-1] == ""


def test_sweep_rejects_empty_list():
    with pytest.raises(ParameterError):
        sweep([])


def test_invalid_configs_rejected():
    with pytest.raises(ParameterError):
        ExperimentConfig(problem="dlog", q=5, n=1, trials=10, seed=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(problem="lwe", q=5, n=1, trials=0, seed=0)
    with pytest.raises(ParameterError):
        run_experiment(ExperimentConfig(problem="lwe", q=2053, n=3, trials=1, seed=0, engine="dense"))
    for fields in (
        dict(problem="sis", q=7, n=2, k=1, L=3, s=(3, 0)),  # 3 lies outside [-1, 1]: no candidate recovers it
        dict(problem="lwe", q=5, n=2, s=(1.5, 2)),
        dict(problem="sis", q=7, n=2, k=1, L=3, s=(1.5, 1)),
        dict(problem="lwr", q=257, n=1, p=16, s=(True,)),
    ):
        with pytest.raises(ParameterError, match=r"\bs = "):
            run_experiment(ExperimentConfig(trials=200, seed=1, **fields))
    for fields, field in (
        (dict(problem="lwe", q=5, n=1, p=3), "p"),
        (dict(problem="sis", q=7, n=2, k=1, L=2, p=3), "p"),
        (dict(problem="ring-global", q=13, n=2, m=4, p=3), "p"),
        (dict(problem="lwe", q=5, n=1, m=4), "m"),
        (dict(problem="lwr", q=257, n=1, p=16, m=4), "m"),
    ):
        with pytest.raises(ParameterError, match=rf"^only [a-z-]+ reads {field}, so {fields['problem']} cannot take"):
            ExperimentConfig(trials=10, seed=0, **fields)
    for m in (0, -4):
        with pytest.raises(ParameterError, match=rf"^m must be >= 1, got {m}$"):
            ExperimentConfig(problem="ring-global", q=13, n=2, m=m, trials=10, seed=0)
    for fields in (dict(problem="sis", q=7, n=2, k=1, L=3), dict(problem="ring-global", q=13, n=2, m=4)):
        with pytest.raises(ParameterError, match=rf"^{fields['problem']} has only the dense engine, so engine = "
                                                 r"analytic cannot run$"):
            ExperimentConfig(trials=10, seed=0, engine="analytic", **fields)


def test_csv_row_round_trips_through_writer(tmp_path):
    report = run_experiment(lwe_config(trials=100))
    path = tmp_path / "single.csv"
    write_csv([report], str(path))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1][0] == "lwe" and float(rows[1][12]) == report.empirical_rate


@pytest.mark.parametrize("config, engine", [
    (ExperimentConfig(problem="sis", q=7, n=2, trials=5, seed=0, k=1, L=3), "dense"),
    (ExperimentConfig(problem="ring-global", q=13, n=2, m=4, trials=5, seed=0), "dense"),
    (ExperimentConfig(problem="lwe", q=5, n=2, trials=5, seed=0), "analytic"),
    (ExperimentConfig(problem="lwe", q=5, n=2, trials=5, seed=0, engine="dense"), "dense"),
])
def test_report_names_the_engine_that_ran(config, engine):
    report = run_experiment(config)
    assert report.csv_row()[CSV_COLUMNS.index("engine")] == engine
    assert f"\nengine: {engine}\n" in report.canonical_text()
