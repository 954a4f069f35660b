import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditlearn
from quditlearn.cli import NOISE_MODELS, build_parser, main
from quditlearn.experiments import PROBLEMS
from quditlearn.learners import ENGINES
from quditlearn.verify import run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    return [line for line in text.splitlines() if not line.startswith("wall_time_ms")]


def test_learn_noiseless_recovers_and_prints_vector(capsys):
    code, out, _ = run_cli(
        capsys, "learn", "--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none", "--seed", "7"
    )
    assert code == 0
    match = re.search(r"recovered = \[(\d+), (\d+)\]", out)
    assert match is not None
    assert out.splitlines()[0].startswith("secret = [")


def test_learn_rate_over_seeds(capsys):
    # noiseless q=5: recovery on ~4/5 of seeds
    hits = sum(
        main(["learn", "--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none",
              "--seed", str(seed)]) == 0
        for seed in range(60)
    )
    capsys.readouterr()
    assert 38 <= hits <= 58


def test_learn_rejects_composite_modulus(capsys):
    code, _, err = run_cli(capsys, "learn", "--q", "4")
    assert code == 2
    assert "prime" in err


def test_learn_sis_prints_solution(capsys):
    code, out, _ = run_cli(
        capsys, "learn", "--problem", "sis", "--q", "7", "--n", "2", "--k", "1",
        "--L", "3", "--seed", "1"
    )
    assert code == 0
    assert "recovered = [" in out


def test_learn_unknown_problem_exits_2(capsys):
    assert main(["learn", "--problem", "rsa"]) == 2


def test_learn_lpn_requires_q2(capsys):
    code, _, err = run_cli(capsys, "learn", "--problem", "lpn", "--q", "5", "--noise", "bernoulli")
    assert code == 2 and "q" in err


def test_env_variable_provides_seed(capsys, monkeypatch):
    args = ["learn", "--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none"]
    monkeypatch.setenv("QUDITLEARN_SEED", "7")
    main(args)
    out_env = capsys.readouterr().out
    monkeypatch.delenv("QUDITLEARN_SEED")
    main(args + ["--seed", "7"])
    out_flag = capsys.readouterr().out
    assert out_env == out_flag


def test_env_seed_that_is_not_an_integer_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("QUDITLEARN_SEED", "abc")
    code, out, err = run_cli(capsys, "experiment", "--trials", "3")
    assert (code, out) == (2, "")
    assert err == "error: QUDITLEARN_SEED must be an integer, got 'abc'\n"
    assert run_cli(capsys, "experiment", "--trials", "3", "--seed", "1")[0] == 0  # the flag wins


def test_calls_in_one_process_print_what_fresh_processes_print(capsys, tmp_path, monkeypatch):
    # the parser is built once and shared, so no call may leave state in it for the next
    assert build_parser() is build_parser()
    monkeypatch.delenv("QUDITLEARN_SEED", raising=False)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "lwe", "q": 11, "n": 2, "noise": "bounded", "k": 1,
                                  "M": 2, "trials": 40, "seed": 4}))
    calls = [
        ["experiment", "--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--L", "20", "--M", "1",
         "--trials", "40", "--seed", "3"],
        ["experiment", "--config", str(config)],
        ["experiment"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "QUDITLEARN_SEED"}
    env["PYTHONPATH"] = str(Path(quditlearn.__file__).resolve().parent.parent)
    for argv in calls:
        in_process = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "quditlearn", *argv], capture_output=True, text=True,
                               env=env, timeout=120)
        assert in_process[0] == fresh.returncode == 0, fresh.stderr
        assert strip_timing(in_process[1]) == strip_timing(fresh.stdout), argv


def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"problem": "lwe", "q": 5, "n": 2, "noise": "none", "seed": 7}))
    main(["learn", "--config", str(config)])
    out_file = capsys.readouterr().out
    main(["learn", "--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none", "--seed", "7"])
    out_flags = capsys.readouterr().out
    assert out_file == out_flags
    # flag overrides the file's q
    code = main(["learn", "--config", str(config), "--q", "4"])
    capsys.readouterr()
    assert code == 2


def test_experiment_output_is_deterministic_without_timing(capsys):
    args = ["experiment", "--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none",
            "--seed", "3", "--trials", "200"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert strip_timing(first) == strip_timing(second)
    assert any(line.startswith("empirical_rate") for line in first.splitlines())


def test_experiment_writes_csv(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "experiment", "--problem", "lwe", "--q", "7", "--n", "1", "--noise", "bounded",
        "--k", "1", "--L", "2", "--M", "1", "--seed", "5", "--trials", "100", "--csv", str(path)
    )
    assert code == 0
    header = path.read_text().splitlines()[0]
    assert header.startswith("problem,q,n,v,k,noise,engine,L,M,p,trials,seed,empirical_rate")


def write_config(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_sweep_runs_config_list(capsys, tmp_path):
    entries = [
        {"problem": "lwe", "q": 5, "n": 2, "trials": 100, "seed": 1, "noise": "none", "L": 1, "M": 0},
        {"problem": "lwe", "q": 7, "n": 1, "trials": 100, "seed": 2, "noise": "bounded", "k": 1,
         "L": 2, "M": 1},
    ]
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(entries))
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--csv", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 3 and rows[0].endswith("wall_time_ms,error")
    assert out.count("problem: lwe") == 2


@pytest.mark.parametrize("entry", [
    {"problem": "lwe", "q": 11, "n": 2, "noise": "bounded", "k": 1, "trials": 30, "seed": 3},
    {"problem": "lpn", "n": 3, "trials": 30, "seed": 2},  # q=2 and Bernoulli noise by default
    {"problem": "lwr", "q": 257, "n": 1, "p": 16, "trials": 30, "seed": 4},
    {"problem": "sis", "q": 7, "n": 2, "L": 3, "trials": 20, "seed": 1},
    {"problem": "ring-global", "q": 13, "m": 4, "noise": "global", "trials": 5, "seed": 5},  # n = phi(m)
], ids=lambda entry: entry["problem"])
def test_sweep_entry_runs_as_the_experiment_config_file(capsys, tmp_path, entry):
    path = write_config(tmp_path, entry)
    code, from_file, _ = run_cli(capsys, "experiment", "--config", path)
    assert code == 0
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps([entry]))
    code, from_sweep, err = run_cli(capsys, "sweep", "--config", str(sweep_path))
    assert (code, err) == (0, "")
    assert from_sweep == from_file[:from_file.index("\nwall_time_ms: ")] + "\n\n"


def test_verify_passes_on_clean_build(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "all checks passed" in out
    assert "norm-preservation" in out and "PASS" in out


def test_verify_inject_fault_names_norm_preservation(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-fault")
    assert code == 1
    line = next(l for l in out.splitlines() if l.startswith("norm-preservation"))
    assert "FAIL" in line


def test_verify_runs_one_fixed_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-qn", "128")
    assert code == 2 and out == "" and "--max-qn" in err  # no knob can shrink the suite
    results = run_verification()
    assert len(results) == 11
    assert not any("skipped" in r.detail for r in results)


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_experiment_csv_replaces_the_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    args = ["experiment", "--problem", "lwe", "--q", "7", "--n", "1", "--noise", "bounded",
            "--k", "1", "--L", "2", "--M", "1", "--trials", "20", "--csv", str(path)]
    assert main(args + ["--seed", "1"]) == 0
    assert main(args + ["--seed", "2"]) == 0
    capsys.readouterr()
    rows = path.read_text().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("problem,") and rows[1].split(",")[11] == "2"


def test_experiment_csv_that_cannot_be_written_fails_before_any_trial(capsys, tmp_path):
    args = ["experiment", "--problem", "lwe", "--q", "7", "--n", "1", "--trials", "3", "--csv"]
    # an empty path once ran every trial and wrote no file, with exit 0
    for path in (tmp_path, tmp_path / "missing" / "report.csv", ""):
        code, out, err = run_cli(capsys, *args, str(path))
        assert (code, out) == (2, ""), path
        assert err == f"error: cannot write --csv {path or repr(path)}: not a file in an existing directory\n"
    assert list(tmp_path.iterdir()) == []  # the check creates nothing


def test_sweep_csv_that_cannot_be_written_fails_before_any_row(capsys, tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"problem": "lwe", "q": 5, "n": 2, "trials": 3, "noise": "none"}] * 2))
    # an empty path once ran every row and then failed to open ''
    for path in (tmp_path, tmp_path / "missing" / "sweep.csv", ""):
        code, out, err = run_cli(capsys, "sweep", "--config", str(config), "--csv", str(path))
        assert (code, out) == (2, ""), path
        assert "cannot write --csv" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_experiment_with_too_many_error_draws_exits_2(capsys):
    # v = 101^12 > 2^63: i.i.d. error counts cannot be drawn for the subset.
    code, out, err = run_cli(
        capsys, "experiment", "--problem", "lwe", "--q", "101", "--n", "12", "--noise", "bounded",
        "--k", "1", "--trials", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "2**63" in err


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    from quditlearn import cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", crash)
    code, out, err = run_cli(capsys, "verify")
    assert code == 3  # exit 1 would read as "abstained"
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"


def test_gaussian_sigma_whose_square_underflows_exits_2(capsys):
    argv = ("experiment", "--problem", "lwe", "--q", "3", "--n", "1", "--noise", "gaussian", "--k", "1",
            "--trials", "5")
    for sigma in ("1e-300", "1e-162", "inf"):  # 2 sigma^2 underflows to 0.0, or sigma is not finite
        code, out, err = run_cli(capsys, *argv, "--sigma", sigma)
        assert code == 2
        assert out == ""
        assert err.startswith("error: gaussian noise needs sigma > 0") and sigma in err
    code, out, err = run_cli(capsys, *argv, "--sigma", "1e-160")
    assert (code, err) == (0, "")


def test_dense_lpn_beyond_the_enumeration_limit_runs(capsys):
    # 2^21 amplitudes fit the dense cap; materializing needs no table of the 2^20 vectors
    code, out, err = run_cli(
        capsys, "learn", "--problem", "lpn", "--q", "2", "--n", "20", "--engine", "dense"
    )
    assert code in (0, 1), err
    assert err == ""
    assert out.startswith("secret = [") and "recovered = " in out


@pytest.mark.parametrize("entry, named", [
    ({"trials": 2.5}, "trials"),
    ({"problem": "rsa"}, "problem"),
    ("lwe", "object"),
    ({"noise": "gaussian", "sigma": "wide"}, "sigma"),
    ({"s": 5}, "'s'"),  # a fixed secret is no flag
    ({"noise": "global", "inner": "bounded"}, "inner"),  # nor is a key of a noise object
    ({"q": [5]}, "--q"),
    ({"trials": {"a": 1}}, "--trials"),
    ({"v": "seven"}, "--v"),
    ({"seed": True}, "--seed"),
    ({"v": 0}, "v must be >= 1"),
    ({"nosie": "bounded"}, "'nosie'"),
    ({"noise": {"kind": "bounded-uniform", "k": 1}}, "--noise"),  # noise is a flag value, not an object
    ({"seed": 2**64}, "seed must lie in [0, 2**64)"),
    ({"s": [1.5, 2]}, "'s'"),
    ({"sgima": 3}, "'sgima'"),
    ({"csv": "row.csv"}, "'csv'"),
    ({"config": "other.json"}, "'config'"),
    ({"noise": "gaussian", "sigma": 1e-300, "k": 1}, "sigma"),  # 2 sigma^2 underflows to 0
])
def test_sweep_malformed_entry_exits_2(capsys, tmp_path, entry, named):
    config = tmp_path / "sweep.json"
    valid = {"problem": "lwe", "q": 5, "n": 2, "trials": 3}
    config.write_text(json.dumps([valid, valid, entry]))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert code == 2
    assert out == ""  # no entry ran
    [line] = err.splitlines()  # one error line, no argparse usage block
    assert line.startswith("error: sweep entry 3") and named in line


@pytest.mark.parametrize("command", ["learn", "experiment"])
def test_seed_outside_64_bits_exits_2(capsys, command):
    argv = (command, "--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none")
    argv += ("--trials", "2") if command == "experiment" else ()
    for seed in (2**64, -1):
        code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
        assert code == 2
        assert out == ""
        assert err == f"error: seed must lie in [0, 2**64), got {seed}\n"
    code, out, err = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
    assert code in (0, 1) and err == ""
    assert command == "learn" or f"seed: {2**64 - 1}" in out.splitlines()


def test_lwr_candidate_test_beyond_the_enumeration_limit_runs(capsys):
    # q^n = 101^3 > 10^6: the spec keeps a residual histogram, and test samples come from the exact oracle
    argv = ("experiment", "--problem", "lwr", "--q", "101", "--n", "3", "--p", "8", "--trials", "5")
    for M in ("1", "0"):
        code, out, err = run_cli(capsys, *argv, "--M", M)
        assert (code, err) == (0, "")
        assert f"M: {M}" in out.splitlines()


def test_lwr_law_too_wide_to_gather_exits_2(capsys):
    # 16,385 residual values x 65,536 values of j* would take over 8 GiB of phases
    code, out, err = run_cli(capsys, "experiment", "--problem", "lwr", "--q", "65537", "--n", "1", "--p", "4",
                             "--L", "3", "--trials", "2")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line == "error: the per-j* outcome law needs 16385 x 65536 phases, over 2**27"


@pytest.mark.parametrize("command", ["learn", "experiment"])
@pytest.mark.parametrize("seed", range(6))
def test_lwe_candidate_test_at_q2_exits_2_at_every_seed(capsys, command, seed):
    argv = ("--problem", "lwe", "--q", "2", "--n", "1", "--noise", "none", "--M", "1", "--L", "1")
    extra = ("--trials", "1") if command == "experiment" else ()
    code, out, err = run_cli(capsys, command, *argv, *extra, "--seed", str(seed))
    assert code == 2
    assert out == ""
    assert err == "error: the lwe candidate test needs an odd q; run lpn, or lwe with --M 0\n"


@pytest.mark.parametrize("argv, named", [
    (("--problem", "lwe", "--q", "5", "--n", "2", "--v", "0"), "v"),
    (("--problem", "lpn", "--q", "2", "--n", "3", "--v", "0"), "v"),
    (("--problem", "sis", "--q", "7", "--n", "2", "--k", "-1"), "k"),
    (("--problem", "lwe", "--q", "5", "--n", "-1"), "n"),
    (("--problem", "ring-global", "--q", "13", "--m", "4", "--L", "0"), "L"),
    (("--problem", "sis", "--q", "7", "--n", "2", "--M", "-1"), "M"),
    (("--problem", "lpn", "--n", "4", "--M", "-3"), "M"),
    (("--problem", "sis", "--q", "2", "--k", "100000000000000000000"), "k"),  # beyond int64 draws
    (("--problem", "ring-global", "--q", "13", "--m", "-4"), "m"),  # named before phi(m) is sought
])
def test_experiment_rejects_empty_subset_and_negative_k(capsys, argv, named):
    code, out, err = run_cli(capsys, "experiment", *argv, "--trials", "3")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {named} must be")


def test_sis_k_beyond_int64_is_named_in_a_sweep_row(capsys, tmp_path):
    path = write_config(tmp_path, [{"problem": "sis", "q": 2, "k": 10**20, "trials": 1}])
    code, out, err = run_cli(capsys, "sweep", "--config", path)
    assert (code, err) == (0, "1 configuration(s) failed\n")
    assert "error: ParameterError: k must be <= 2**63 - 1" in out


@pytest.mark.parametrize("command", ["learn", "experiment"])
@pytest.mark.parametrize("noise", ["gaussian", "bounded"])
def test_ring_global_rejects_iid_noise(capsys, command, noise):
    extra = ("--trials", "2") if command == "experiment" else ()
    code, out, err = run_cli(
        capsys, command, "--problem", "ring-global", "--q", "13", "--m", "4", "--noise", noise,
        "--k", "1", *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "ring-global" in err


@pytest.mark.parametrize("argv", [
    ("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--noise", "bounded", "--k", "3"),
    ("--problem", "sis", "--noise", "gaussian"),
])
def test_lwr_and_sis_reject_a_noise_they_never_read(capsys, argv):
    code, out, err = run_cli(capsys, "experiment", *argv, "--trials", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[1]} reads no noise model")


@pytest.mark.parametrize("argv, field, reader", [
    (("--problem", "lwe", "--q", "5", "--p", "3"), "p", "lwr"),
    (("--problem", "sis", "--q", "7", "--n", "2", "--k", "1", "--L", "2", "--p", "3"), "p", "lwr"),
    (("--problem", "lwe", "--q", "5", "--m", "4"), "m", "ring-global"),
    (("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--m", "4"), "m", "ring-global"),
])
def test_p_and_m_on_a_problem_that_never_reads_them_exit_2(capsys, argv, field, reader):
    code, out, err = run_cli(capsys, "experiment", *argv, "--trials", "2")
    assert (code, out) == (2, "")
    assert err == f"error: only {reader} reads {field}, so {argv[1]} cannot take {field} = {argv[-1]}\n"


@pytest.mark.parametrize("command", ["learn", "experiment"])
@pytest.mark.parametrize("argv", [
    ("--problem", "sis", "--q", "7", "--n", "2", "--k", "1", "--L", "3"),
    ("--problem", "ring-global", "--q", "13", "--m", "4"),
])
def test_an_analytic_engine_on_a_dense_only_problem_exits_2(capsys, command, argv):
    code, out, err = run_cli(capsys, command, *argv, "--engine", "analytic")
    assert (code, out) == (2, "")
    assert err == f"error: {argv[1]} has only the dense engine, so engine = analytic cannot run\n"
    code, out, _ = run_cli(capsys, command, *argv, "--engine", "dense", "--seed", "1")
    assert code in (0, 1) and out


def test_ring_global_checks_an_explicit_n_against_phi_m(capsys):
    argv = ("experiment", "--problem", "ring-global", "--q", "13", "--m", "4", "--trials", "2")
    code, out, err = run_cli(capsys, *argv, "--n", "5")
    assert (code, out, err) == (2, "", "error: ring dimension is phi(4) = 2, got n = 5\n")
    code, out, _ = run_cli(capsys, *argv, "--n", "2")
    assert code == 0 and "n: 2" in out.splitlines()


@pytest.mark.parametrize("command", ["learn", "experiment"])
@pytest.mark.parametrize("k", ["7", "100000"])
def test_ring_global_noise_wider_than_q_exits_2(capsys, command, k):
    argv = (command, "--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global")
    argv += ("--trials", "2") if command == "experiment" else ()
    code, out, err = run_cli(capsys, *argv, "--k", k)
    assert (code, out, err) == (2, "", f"error: noise support 2k+1 = {2 * int(k) + 1} exceeds q = 13\n")
    code, out, _ = run_cli(capsys, *argv, "--k", "6", "--seed", "1")  # the widest support that fits q
    assert code in (0, 1) and out


@pytest.mark.parametrize("q, k", [("3", 2), ("5", 3)])
def test_lwr_without_room_for_its_residual_bound_names_p_and_q(capsys, q, k):
    code, out, err = run_cli(capsys, "experiment", "--problem", "lwr", "--q", q, "--p", "2", "--trials", "2")
    assert (code, out) == (2, "")
    assert err == (f"error: p=2 is too coarse for q={q}: the rounding residual bound "
                   f"k = ceil(q/(2p)) + 1 = {k} needs 2k + 1 <= q\n")


def test_lwe_beyond_the_float_range_exits_2(capsys):
    # v * q^(n+1) = q^(2n+1): 257^261 and 4099^87 exceed sys.float_info.max, 4099^85 does not;
    # lwr always uses v = q^n, so its law meets the same limit
    problems = {"lwe": ("--noise", "none"), "lwr": ("--p", "16", "--M", "0")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        for problem, extra in problems.items():
            for q, n in (("257", "130"), ("4099", "43")):
                code, out, err = run_cli(capsys, "experiment", "--problem", problem, "--q", q, "--n", n,
                                         *extra, "--trials", "2")
                assert code == 2
                assert out == ""
                [line] = err.splitlines()
                assert line.startswith(f"error: {problem} needs v * q^(n+1) <= sys.float_info.max")
            code, out, err = run_cli(capsys, "experiment", "--problem", problem, "--q", "4099", "--n", "42",
                                     *extra, "--trials", "2")
            assert (code, err) == (0, "")
        # a shared-noise histogram holds v = 4099^42 > 2^63 as a Python int
        code, out, err = run_cli(capsys, "experiment", "--problem", "lwe", "--q", "4099", "--n", "42",
                                 "--noise", "global", "--k", "1", "--trials", "2")
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["learn", "experiment"])
@pytest.mark.parametrize("problem", ["lwe", "lpn", "lwr", "sis", "ring-global"])
@pytest.mark.parametrize("q", ["0", "-7"])
def test_modulus_is_checked_before_the_secret_is_drawn(capsys, command, problem, q):
    extra = ("--trials", "2") if command == "experiment" else ()
    code, out, err = run_cli(capsys, command, "--problem", problem, "--q", q, "--n", "2", *extra)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line == f"error: modulus must be prime, got {q}"


@pytest.mark.parametrize("argv, power", [
    (("--problem", "sis", "--q", "4099", "--n", "43"), "4099^44"),
    (("--problem", "lpn", "--n", "600"), "2^600"),
])
def test_size_limit_messages_print_powers(capsys, argv, power):
    code, out, err = run_cli(capsys, "experiment", *argv, "--trials", "2")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert power in line and len(line) < 200


@pytest.mark.parametrize("command", ["learn", "experiment"])
def test_lpn_rejects_non_bernoulli_noise(capsys, command):
    extra = ("--trials", "2") if command == "experiment" else ()
    code, out, err = run_cli(
        capsys, command, "--problem", "lpn", "--q", "2", "--n", "4", "--noise", "none", *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bernoulli" in err


@pytest.mark.parametrize("command", ["learn", "experiment", "sweep"])
def test_q_to_the_n_beyond_printable_digits_exits_2_at_once(capsys, tmp_path, command):
    # a failed sweep row used to print v = 101^(10^20) and never returned
    obj = {"problem": "lwr", "q": 101, "p": 4, "L": 2, "n": 10**20} | ({} if command == "learn" else {"trials": 2})
    path = write_config(tmp_path, [obj] if command == "sweep" else obj)
    code, out, err = run_cli(capsys, command, "--config", path)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and line.endswith(f"q^n = 101^{10**20} has more than 4300 digits")


@pytest.mark.parametrize("obj, message", [
    ({"noise": "gaussain"}, "argument --noise: invalid choice: 'gaussain'"),
    ({"q": 7.9}, "argument --q: invalid int value: '7.9'"),
    ({"v": 3.5}, "argument --v: invalid int value: '3.5'"),
    ({"k": 1.5}, "argument --k: invalid int value: '1.5'"),
    ({"problem": True}, "argument --problem: invalid choice: 'true'"),  # the value as JSON writes it
    ({"seed": [5]}, "argument --seed: invalid int value: '[5]'"),
])
def test_config_file_values_pass_the_flag_checks(capsys, tmp_path, obj, message):
    path = write_config(tmp_path, obj)
    code, out, err = run_cli(capsys, "experiment", "--config", path, "--trials", "3")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()  # one error line, no argparse usage block
    assert line.startswith(f"error: experiment config file: {message}")


def test_config_file_value_is_converted_like_the_flag(capsys, tmp_path):
    flags = {"problem": "lwr", "q": 257, "n": 1, "L": 20, "M": 1, "seed": 4}
    path = write_config(tmp_path, {**flags, "p": "16"})
    code, from_file, _ = run_cli(capsys, "experiment", "--config", path, "--trials", "20")
    assert code == 0
    argv = [t for key, value in flags.items() for t in (f"--{key}", str(value))]
    code, from_flags, _ = run_cli(capsys, "experiment", *argv, "--p", "16", "--trials", "20")
    assert code == 0

    def canonical(text):
        return [line for line in text.splitlines() if not line.startswith("wall_time_ms")]

    assert canonical(from_file) == canonical(from_flags)
    assert "p: 16" in from_file.splitlines()


def test_config_file_null_means_not_given(capsys, tmp_path):
    path = write_config(tmp_path, {"q": None, "v": None, "seed": 7, "noise": "none"})
    code, from_file, _ = run_cli(capsys, "learn", "--config", path)
    code_flags, from_flags, _ = run_cli(capsys, "learn", "--seed", "7", "--noise", "none")
    assert (code, from_file) == (code_flags, from_flags)


@pytest.mark.parametrize("command, key", [("learn", "trials"), ("experiment", "tri"), ("learn", "config")])
def test_config_file_key_that_is_no_flag_exits_2(capsys, tmp_path, command, key):
    path = write_config(tmp_path, {"q": 5, key: 5})
    code, out, err = run_cli(capsys, command, "--config", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and repr(key) in err


def test_sweep_has_no_seed_flag(capsys, tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps([{"problem": "lwe", "q": 5, "n": 2, "trials": 3}]))
    code, out, err = run_cli(capsys, "sweep", "--config", str(path), "--seed", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed 5" in err


@pytest.mark.parametrize("argv, qn", [
    (("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16"), 257),
    (("--problem", "sis", "--q", "7", "--n", "2", "--k", "1", "--L", "3"), 49),
    (("--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global"), 169),
])
def test_problems_over_all_vectors_reject_another_v(capsys, argv, qn):
    code, out, err = run_cli(capsys, "experiment", *argv, "--v", "10", "--trials", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "v = 10" in err
    code, out, _ = run_cli(capsys, "experiment", *argv, "--v", str(qn), "--trials", "2")
    assert code == 0 and f"v: {qn}" in out.splitlines()


# Edge values of each learn/experiment flag.  Up to four flags take an edge
# value in one example and the rest keep their defaults, so a share of the
# examples runs to the end.  L stays small, 2 unless drawn: the harness caps
# states and sizes but not attempts, and the default L = ceil(20 k ln 10)
# dense attempts at 101^3 amplitudes take seconds.  lwr has no default p and
# no residual support that fits the default q = 5, so it starts at q = 101, p = 4.
_FLAG_EDGES = {
    "q": (0, -1, 1, 2, 4, 101, 10**20),
    "n": (0, -1, 1, 2, 3, 10**20),
    "k": (0, -1, 1, 2, 10**20),
    "p": (0, -1, 1, 2, 4, 101, 10**20),
    "m": (0, -1, 1, 2, 4, 5, 10**20),
    "v": (0, -1, 1, 2, 10**20),
    "L": (-1, 0, 1, 2),
    "M": (-1, 0, 1, 2),
    "sigma": ("0", "-1", "nan", "inf", "1e-300"),
    "eta": ("0", "-1", "nan", "inf", "1e-300"),
    "noise": tuple(NOISE_MODELS),
    "engine": ENGINES,
}


@st.composite
def _flag_sets(draw):
    command = draw(st.sampled_from(["learn", "experiment"]))
    problem = draw(st.sampled_from(PROBLEMS))
    flags = {"L": 2} | ({"q": 101, "p": 4} if problem == "lwr" else {})
    for flag in draw(st.sets(st.sampled_from(tuple(_FLAG_EDGES)), max_size=4)):
        flags[flag] = draw(st.sampled_from(_FLAG_EDGES[flag]))
    if command == "experiment":
        flags["trials"] = draw(st.integers(1, 3))
    return [command, f"--problem={problem}", *(f"--{f}={x}" for f, x in flags.items() if x is not None)]


def _assert_runs_or_exits_2(argv, inputs=None):
    """Run ``main(argv)`` in process: exit 0 (or 1 for learn) with nothing on stderr, or 2 with one error line.

    A sweep exits 0 with its failed rows counted on stderr; each row's error
    must be a ValueError, which the same flags would exit 2 with on the
    command line.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    context = (argv, inputs, err)
    assert code in ((0, 1, 2) if argv[0] == "learn" else (0, 2)), context
    assert not caught, (context, [str(w.message) for w in caught])
    if code == 2:  # one line, the message, and no traceback or warning text
        assert err.startswith("error: ") and err.count("\n") == 1, context
    elif argv[0] == "sweep":
        failed = [line for line in out.splitlines() if line.startswith("error: ")]
        assert all(re.match(r"error: (ParameterError|StateError|ValueError): ", line) for line in failed), (context, failed)
        assert err == (f"{len(failed)} configuration(s) failed\n" if failed else ""), (context, out)
    else:
        assert err == "", context


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_flag_sets())
def test_every_flag_set_runs_or_exits_2(argv):
    _assert_runs_or_exits_2(argv)


# JSON values that no flag takes as written; null means "not given", so L
# and trials never take one (their defaults run long) and keep their values.
_JSON_ODDITIES = (None, True, 1.5, "x", [5], {"k": 1})


@st.composite
def _config_objects(draw, command):
    """A learn/experiment config object or a sweep entry: edge values as JSON, odd values, unknown keys."""
    problem = draw(st.sampled_from(PROBLEMS))
    obj = {"problem": problem, "L": 2} | ({"q": 101, "p": 4} if problem == "lwr" else {})
    if command != "learn":
        obj["trials"] = draw(st.integers(0, 3))
    for key in draw(st.sets(st.sampled_from(tuple(_FLAG_EDGES)), max_size=3)):
        obj[key] = draw(st.sampled_from(_FLAG_EDGES[key]))
    odd = ("problem", "q", "n", "k", "sigma", "eta", "p", "m", "v", "M", "seed", "engine", "noise", "trails",
           "csv" if command == "sweep" else "config")
    for key in draw(st.sets(st.sampled_from(odd), max_size=1)):
        obj[key] = draw(st.sampled_from(_JSON_ODDITIES))
    return obj


@st.composite
def _config_runs(draw):
    """(command, JSON text of its --config file, command-line flags after it)."""
    command = draw(st.sampled_from(["learn", "experiment", "sweep"]))
    if command == "sweep":
        # not {"k": 1}: a valid entry without trials runs the default 1,000
        entry = st.one_of(_config_objects("sweep"), st.sampled_from((None, True, 1.5, "x", [5])))
        data = draw(st.one_of(st.lists(entry, min_size=1, max_size=2), st.sampled_from(([], {}, 5, None))))
        return command, json.dumps(data), []
    data = draw(st.one_of(_config_objects(command), st.sampled_from(([{}], 5, "x", None))))
    flags = {flag: draw(st.sampled_from(_FLAG_EDGES[flag]))
             for flag in draw(st.sets(st.sampled_from(tuple(_FLAG_EDGES)), max_size=1))}
    return command, json.dumps(data), [f"--{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_config_runs())
def test_every_config_file_and_sweep_entry_runs_or_exits_2(run):
    command, text, flags = run
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "config.json")
        with open(path, "w") as handle:
            handle.write(text)
        _assert_runs_or_exits_2([command, "--config", path, *flags], text)
