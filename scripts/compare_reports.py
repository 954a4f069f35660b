#!/usr/bin/env python3
"""Check that two source trees print the same reports, run for run.

    python scripts/compare_reports.py OLD_SRC NEW_SRC [--seeds 1 1000 7 42]

OLD_SRC and NEW_SRC are directories that hold a ``quditlearn`` package (a
checkout's ``src``).  Each tree runs in its own Python process, with
PYTHONPATH set to it, and that process runs a fixed list of command lines
through ``cli.main``:

  - ``experiment`` on the golden configurations of tests/test_golden.py, plus
    lwr on the dense engine, lwr above ``ENUMERABLE_LIMIT`` (its histogram
    spec and exact oracle), lwr with a wide residual support (p = 64 at
    q = 8191), lwr at q = 11 (wrong candidates redrawn, two test samples) and
    at n = 2, ring-global at m = 3 and at (q, m) = (5, 4) and (29, 4), and
    lwe-dense on a proper subset (v = 100), with global noise and with
    gaussian noise, each at every seed, at the golden trial count;
  - the golden ring-global configuration at ``RING_SWITCH_SEEDS``, whose
    secrets have a zero coordinate, so that ``measure_qft_all`` switches from
    its support passes to a dense block at every register where it can;
  - ``verify`` and ``verify --inject-fault``;
  - the golden ``learn`` runs;
  - each usage rule in ``USAGE_ERRORS`` once, as both ``experiment`` and
    ``learn``: each exits 2, and its stderr line is the message.

A run matches when its exit code, its stdout without the ``wall_time_ms:``
line, and its stderr are equal in both trees.  The script prints each run
that differs and then "N of N identical", and exits 0 when all match, 1 when
some differ and 2 when a tree cannot run them.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_TESTS = Path(__file__).resolve().parent.parent / "tests" / "test_golden.py"

# Runs each argv of the JSON list on stdin in process; prints [exit code, stdout, stderr] per run.
WORKER = """
import contextlib, io, json, sys
from quditlearn.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

# Flags that break one usage rule each; every learn/experiment run checks its secret draw and its
# problem's rules in one order, so the message of each shows that order.
USAGE_ERRORS = {
    "lwr-v": ("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--v", "5"),
    "sis-v": ("--problem", "sis", "--q", "7", "--v", "5"),
    "ring-global-v": ("--problem", "ring-global", "--q", "13", "--v", "5"),
    "ring-global-noise": ("--problem", "ring-global", "--q", "13", "--noise", "bounded"),
    "ring-global-n": ("--problem", "ring-global", "--q", "13", "--n", "5"),
    "ring-global-cap": ("--problem", "ring-global", "--q", "2003", "--m", "2002"),
    "dense-cap": ("--problem", "lwe", "--q", "101", "--n", "3", "--engine", "dense"),
    "float-limit": ("--problem", "lwe", "--q", "4099", "--n", "43"),
    "lpn-q3": ("--problem", "lpn", "--q", "3"),
    "lpn-no-noise": ("--problem", "lpn", "--noise", "none"),
    "lwe-q2-test": ("--problem", "lwe", "--q", "2", "--M", "1"),
    "sis-noise": ("--problem", "sis", "--noise", "bounded"),
    "sis-k": ("--problem", "sis", "--k", str(2**63)),
    "lwr-no-p": ("--problem", "lwr", "--q", "257", "--n", "1"),
    "composite-q": ("--problem", "lwe", "--q", "9"),
}


# (q, m) = (13, 4) secrets with phi(s) = (5, 0), (0, 7) and (0, 0): the support passes stop at register 1, 0
# and 0, where a secret with both coordinates nonzero passes two registers
RING_SWITCH_SEEDS = (30, 32, 56)


def golden_tables() -> dict:
    """TRIALS, CONFIGS and LEARN_RUNS as tests/test_golden.py defines them."""
    names = ("TRIALS", "CONFIGS", "LEARN_RUNS")
    tree = ast.parse(GOLDEN_TESTS.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    }


def runs(seeds: list[int]) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in a fixed order."""
    golden = golden_tables()
    configs = dict(golden["CONFIGS"])
    configs["lwr-dense"] = (*configs["lwr-fixed-spec"], "--engine", "dense")
    # q^n > ENUMERABLE_LIMIT; at q = 103, p = 16 a residual histogram in sorted order moves exact_prob's last bit
    configs["lwr-histogram"] = ("--problem", "lwr", "--q", "103", "--n", "3", "--p", "16", "--M", "1")
    # a wide residual support: 131 x 8190 phases
    configs["lwr-wide-support"] = ("--problem", "lwr", "--q", "8191", "--n", "1", "--p", "64", "--M", "1")
    # about 1 attempt in 10 redraws a wrong candidate that is the secret, and each test reads two samples
    configs["lwr-redraw"] = ("--problem", "lwr", "--q", "11", "--n", "1", "--p", "5", "--M", "2")
    configs["lwr-n2"] = ("--problem", "lwr", "--q", "101", "--n", "2", "--p", "8", "--M", "1")  # two-coordinate vectors
    configs["ring-global-m3"] = ("--problem", "ring-global", "--q", "13", "--m", "3", "--noise", "global")
    # m = 4 below and above the golden q = 13: ring states whose first pass keeps the live columns only
    configs["ring-global-q5"] = ("--problem", "ring-global", "--q", "5", "--m", "4", "--noise", "global")
    configs["ring-global-q29"] = ("--problem", "ring-global", "--q", "29", "--m", "4", "--noise", "global")
    # later flags override the golden ones
    configs["lwe-dense-v100"] = (*configs["lwe-dense"], "--v", "100")
    configs["lwe-dense-global"] = (*configs["lwe-dense"], "--noise", "global", "--k", "1")
    configs["lwe-dense-gaussian"] = (*configs["lwe-dense"], "--noise", "gaussian", "--sigma", "1", "--k", "1")
    out = [
        (f"experiment {name} seed {seed}",
         ["experiment", *flags, "--trials", str(golden["TRIALS"]), "--seed", str(seed)])
        for name, flags in configs.items()
        for seed in seeds
    ]
    out += [(f"experiment ring-global seed {seed}",
             ["experiment", *configs["ring-global"], "--trials", str(golden["TRIALS"]), "--seed", str(seed)])
            for seed in RING_SWITCH_SEEDS]
    out += [("verify", ["verify"]), ("verify --inject-fault", ["verify", "--inject-fault"])]
    out += [(f"learn {name}", ["learn", *argv]) for name, (argv, _) in golden["LEARN_RUNS"].items()]
    out += [(f"{command} usage {name}", [command, *flags])
            for name, flags in USAGE_ERRORS.items() for command in ("experiment", "learn")]
    return out


def run_tree(src: str, argvs: list[list[str]]) -> list[tuple[int, str, str]]:
    src = str(Path(src).resolve())  # also the working directory, so `-c` puts no other tree first
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", WORKER], input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, cwd=src)
    if done.returncode != 0:
        print(f"error: the runs of {src} did not complete:\n{done.stderr}", file=sys.stderr)
        sys.exit(2)
    return [
        (code, "".join(line for line in out.splitlines(keepends=True) if not line.startswith("wall_time_ms:")), err)
        for code, out, err in json.loads(done.stdout)
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 1000, 7, 42])
    args = parser.parse_args()
    for src in (args.old_src, args.new_src):
        if not (Path(src) / "quditlearn" / "__init__.py").is_file():
            parser.error(f"{src} holds no quditlearn package")

    named = runs(args.seeds)
    argvs = [argv for _, argv in named]
    old, new = run_tree(args.old_src, argvs), run_tree(args.new_src, argvs)
    differ = [name for (name, _), a, b in zip(named, old, new) if a != b]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(named) - len(differ)} of {len(named)} identical")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
