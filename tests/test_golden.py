"""Pinned canonical reports of short `experiment` runs at fixed seeds.

A canonical report must stay byte-identical for a fixed configuration and
seed, so any change to the trial logic, the RNG layout or the float
arithmetic behind ``exact_prob`` shows up here.  The expected texts live in
``tests/golden/<name>-seed<seed>.txt``; the configurations are the four
benchmark workloads plus one LPN run on each engine (the analytic one draws
its specs as error counts), two SIS runs, one LWE run on a proper
subset (v < q^n) on each engine (the dense one draws an explicit subset and
its error map) and one noiseless ring run at a second conductor (q = 7,
m = 3).  ``sis`` screens with L = 3, where a wrong
candidate survives with probability 1/343; ``sis-screening`` screens with
L = 1, so a wrong candidate survives one time in 11 and every uniform of the
screening decides an outcome.  The output of ``verify`` and of ``verify
--inject-fault`` is pinned the same way, in ``tests/golden/verify.txt`` and
``tests/golden/verify-inject-fault.txt``, together with the exit codes 0 and 1,
and one ``learn`` run per problem in ``tests/golden/learn-<name>.txt``.
"""

from pathlib import Path

import pytest

from quditlearn.cli import main

GOLDEN = Path(__file__).parent / "golden"
TRIALS = 50
SEEDS = (1, 1000)

CONFIGS = {
    "lwe-analytic": ("--problem", "lwe", "--q", "101", "--n", "2", "--noise", "gaussian", "--sigma", "1",
                     "--k", "2", "--L", "93", "--M", "1"),
    "lwe-analytic-subset": ("--problem", "lwe", "--q", "11", "--n", "2", "--v", "50", "--noise", "bounded",
                            "--k", "1", "--L", "20", "--M", "1"),
    "lwr-fixed-spec": ("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--L", "20", "--M", "1"),
    "lwe-dense": ("--problem", "lwe", "--q", "7", "--n", "3", "--noise", "bounded", "--k", "1",
                  "--L", "3", "--M", "2", "--engine", "dense"),
    "lwe-dense-subset": ("--problem", "lwe", "--q", "11", "--n", "2", "--v", "50", "--noise", "bounded",
                         "--k", "1", "--L", "20", "--M", "1", "--engine", "dense"),
    "ring-global": ("--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global", "--k", "1"),
    "ring-global-none": ("--problem", "ring-global", "--q", "7", "--m", "3", "--noise", "none"),
    "lpn-dense": ("--problem", "lpn", "--q", "2", "--n", "8", "--eta", "0.1", "--L", "9", "--engine", "dense"),
    "lpn-analytic": ("--problem", "lpn", "--q", "2", "--n", "8", "--eta", "0.1", "--L", "9", "--engine", "analytic"),
    "sis": ("--problem", "sis", "--q", "7", "--n", "2", "--k", "1", "--L", "3"),
    "sis-screening": ("--problem", "sis", "--q", "11", "--n", "2", "--k", "2", "--L", "1"),
}


def canonical_report(capsys, name: str, seed: int) -> str:
    argv = ["experiment", *CONFIGS[name], "--trials", str(TRIALS), "--seed", str(seed)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    return "".join(line for line in out.splitlines(keepends=True) if not line.startswith("wall_time_ms:"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_canonical_report_is_pinned(capsys, name, seed):
    expected = (GOLDEN / f"{name}-seed{seed}.txt").read_text()
    assert canonical_report(capsys, name, seed) == expected


# One `learn` run per problem: stdout and exit code (1 = abstained, BOT).
LEARN_RUNS = {
    "lwe": (("--problem", "lwe", "--q", "5", "--n", "2", "--noise", "none", "--seed", "7"), 0),
    "sis": (("--problem", "sis", "--q", "7", "--n", "2", "--k", "1", "--L", "3", "--seed", "1"), 0),
    "lwr": (("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--L", "20", "--M", "1",
             "--seed", "1"), 0),
    "lpn": (("--problem", "lpn", "--n", "8", "--eta", "0.1", "--L", "9", "--engine", "dense", "--seed", "1"), 0),
    "ring-global-seed1": (("--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global",
                           "--seed", "1"), 1),
    "ring-global-seed2": (("--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global",
                           "--seed", "2"), 0),
}


@pytest.mark.parametrize("name", sorted(LEARN_RUNS))
def test_learn_output_is_pinned(capsys, name):
    argv, code = LEARN_RUNS[name]
    assert main(["learn", *argv]) == code
    assert capsys.readouterr().out == (GOLDEN / f"learn-{name}.txt").read_text()


@pytest.mark.parametrize("name, argv, code", [
    ("verify", ["verify"], 0),
    ("verify-inject-fault", ["verify", "--inject-fault"], 1),
])
def test_verify_output_is_pinned(capsys, name, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
