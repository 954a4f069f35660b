import json
import re
import warnings

import pytest

from quditlearn.cli import main
from quditlearn.verify import run_verification


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def strip_timing(text):
        return [line for line in text.splitlines() if not line.startswith("wall_time_ms")]

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
    assert len(rows) == 3 and rows[0].endswith("wall_time_ms")
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


def test_lwr_candidate_test_beyond_the_enumeration_limit_exits_2(capsys):
    # q^n = 101^3 > 10^6: the spec keeps a residual histogram, which cannot model test samples
    argv = ("experiment", "--problem", "lwr", "--q", "101", "--n", "3", "--p", "8", "--trials", "5")
    code, out, err = run_cli(capsys, *argv, "--M", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "ENUMERABLE_LIMIT = 1000000" in err
    code, out, err = run_cli(capsys, *argv, "--M", "0")
    assert (code, err) == (0, "")
    assert "M: 0" in out.splitlines()


@pytest.mark.parametrize("argv, named", [
    (("--problem", "lwe", "--q", "5", "--n", "2", "--v", "0"), "v"),
    (("--problem", "lpn", "--q", "2", "--n", "3", "--v", "0"), "v"),
    (("--problem", "sis", "--q", "7", "--n", "2", "--k", "-1"), "k"),
    (("--problem", "lwe", "--q", "5", "--n", "-1"), "n"),
])
def test_experiment_rejects_empty_subset_and_negative_k(capsys, argv, named):
    code, out, err = run_cli(capsys, "experiment", *argv, "--trials", "3")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {named} must be")


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


def test_lwe_beyond_the_float_range_exits_2(capsys):
    # v * q^(n+1) = q^(2n+1): 257^261 and 4099^87 exceed sys.float_info.max, 4099^85 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        for q, n in (("257", "130"), ("4099", "43")):
            code, out, err = run_cli(capsys, "experiment", "--problem", "lwe", "--q", q, "--n", n,
                                     "--noise", "none", "--trials", "2")
            assert code == 2
            assert out == ""
            [line] = err.splitlines()
            assert line.startswith("error: lwe needs v * q^(n+1) <= sys.float_info.max")
        code, out, err = run_cli(capsys, "experiment", "--problem", "lwe", "--q", "4099", "--n", "42",
                                 "--noise", "none", "--trials", "2")
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["learn", "experiment"])
def test_lpn_rejects_non_bernoulli_noise(capsys, command):
    extra = ("--trials", "2") if command == "experiment" else ()
    code, out, err = run_cli(
        capsys, command, "--problem", "lpn", "--q", "2", "--n", "4", "--noise", "none", *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bernoulli" in err


@pytest.mark.parametrize("obj, message", [
    ({"noise": "gaussain"}, "argument --noise: invalid choice: 'gaussain'"),
    ({"q": 7.9}, "argument --q: invalid int value: '7.9'"),
    ({"v": 3.5}, "argument --v: invalid int value: '3.5'"),
    ({"k": 1.5}, "argument --k: invalid int value: '1.5'"),
])
def test_config_file_values_pass_the_flag_checks(capsys, tmp_path, obj, message):
    path = write_config(tmp_path, obj)
    code, out, err = run_cli(capsys, "experiment", "--config", path, "--trials", "3")
    assert code == 2
    assert out == ""
    assert message in err


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
