"""Smoke runs of the scripts under scripts/, which use the public API."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import quditlearn

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(quditlearn.__file__).resolve().parent.parent)


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)


def test_scripts_run_and_write_their_tables(tmp_path):
    sweeps = run_script("run_sweeps.py", "--trials", "5", "--seed", "1", "--outdir", str(tmp_path))
    assert sweeps.returncode == 0, sweeps.stderr
    # M=0 at q=11, k=1, L=3: p_ac = 10/33 and P = (1/3)(1 - 11^-3)
    m0 = [line for line in sweeps.stdout.splitlines() if "q=11 n=1" in line and "M=0:" in line]
    assert len(m0) == 1 and m0[0].endswith("predicted=0.3331"), m0
    seeds = []
    for name, rows in (("noiseless", 5), ("k_sweep", 5), ("m_sweep", 4), ("v_sweep", 4)):
        with open(tmp_path / f"{name}.csv", newline="") as handle:
            table = list(csv.DictReader(handle))
        assert len(table) == rows
        assert all(row["empirical_rate"] for row in table), name  # a failed row is written blank
        seeds += [int(row["seed"]) for row in table]
    # trial t runs at seed XOR t, so rows closer than 2^20 would share trial streams
    assert all(abs(a - b) >= 2**20 for i, a in enumerate(seeds) for b in seeds[:i])
    top = run_script("run_sweeps.py", "--trials", "1", "--seed", str(2**37 - 1), "--outdir", str(tmp_path))
    assert top.returncode == 0, top.stderr
    with open(tmp_path / "v_sweep.csv", newline="") as handle:
        # the secret is keyed at trial index 2^63, so row seeds stay below it
        assert all(2**63 - 2**20 >= int(row["seed"]) for row in csv.DictReader(handle))
    for flag, value in (("--seed", 2**37), ("--seed", -1), ("--trials", 0), ("--trials", 2**20 + 1)):
        rejected = run_script("run_sweeps.py", flag, str(value), "--outdir", str(tmp_path))
        assert rejected.returncode == 2 and flag in rejected.stderr, (flag, value)
    scan = run_script("parity_bound_scan.py")
    assert scan.returncode == 0, scan.stderr
    assert scan.stdout.splitlines()[1].startswith("n    eta=0.05")
    rows = [[float(x) for x in line.split()] for line in scan.stdout.splitlines()[2:]]
    # the first n whose pass fraction reaches 0.95, for eta = 0.05, 0.10 and 0.25
    assert tuple(next(int(row[0]) for row in rows if row[col] >= 0.95) for col in (1, 2, 3)) == (9, 10, 12)


def test_compare_reports_names_a_changed_report(tmp_path):
    same = run_script("compare_reports.py", SRC, SRC, "--seeds", "1")
    assert same.returncode == 0, same.stderr
    assert same.stdout == "61 of 61 identical\n"  # 31 runs, then 15 usage errors as experiment and as learn
    shutil.copytree(Path(SRC) / "quditlearn", tmp_path / "quditlearn", ignore=shutil.ignore_patterns("__pycache__"))
    experiments = tmp_path / "quditlearn" / "experiments.py"
    text = experiments.read_text()
    assert text.count("_Z95 = 1.959963984540054\n") == 1
    assert text.count('"lwr needs the rounding modulus p"') == 1
    text = text.replace('"lwr needs the rounding modulus p"', '"lwr needs p"')  # moves one stderr line only
    experiments.write_text(text.replace("_Z95 = 1.959963984540054\n", "_Z95 = 1.96\n"))  # moves every Wilson bound
    changed = run_script("compare_reports.py", SRC, str(tmp_path), "--seeds", "1")
    assert changed.returncode == 1, changed.stderr
    assert "differs: experiment lwe-analytic seed 1\n" in changed.stdout
    assert "differs: experiment usage lwr-no-p\ndiffers: learn usage lwr-no-p\n" in changed.stdout
    assert "differs: experiment ring-global seed 56\n" in changed.stdout
    assert changed.stdout.endswith("36 of 61 identical\n")
