"""Smoke runs of the scripts under scripts/, which use the public API."""

import csv
import importlib.util
import json
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
    assert same.stdout == "70 of 70 identical\n"  # 40 runs, then 15 usage errors as experiment and as learn
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
    assert changed.stdout.endswith("36 of 70 identical\n")


def _run_py_output(trials_per_s: float, failed: int = 0) -> str:
    """The last lines run.py prints: the env line, one metric line and the result object."""
    result = {"correct": failed == 0, "attempted": 1000, "failed": failed, "metrics": {
        "trials_per_s": {"value": trials_per_s, "unit": "1/s"}, "setup_s": {"value": 0.03, "unit": "s"}}}
    env = {"commit": "abc", "src_sha256": "0123"}
    return f"env: {json.dumps(env)}\ntrials_per_s: {trials_per_s:.6g} 1/s\n{json.dumps(result)}\n"


def test_bench_pairs_alternates_sides_and_aggregates_the_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    rates = {("old", 5): 100.0, ("new", 5): 120.0, ("old", 6): 110.0, ("new", 6): 105.0,
             ("old", 7): 90.0, ("new", 7): 99.0, ("old", 8): 100.0, ("new", 8): 100.0, ("old", 9): 100.0}
    calls = []

    def runner(checkout, workload, seed, seconds):  # canned run.py output; nothing is benchmarked
        calls.append((checkout, workload, seed, seconds))
        return (3, "") if (checkout, seed) == ("new", 9) else (0, _run_py_output(rates[checkout, seed]))

    report = bench_pairs.bench({"parent": "old", "change": "new"}, "lwr-fixed-spec", [5, 6, 7, 8, 9], 4.0,
                               {"trials_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}, runner)
    assert [(c, s) for c, _, s, _ in calls] == [("old", 5), ("new", 5), ("new", 6), ("old", 6), ("old", 7),
                                                 ("new", 7), ("new", 8), ("old", 8), ("old", 9), ("new", 9)]
    assert {w for _, w, _, _ in calls} == {"lwr-fixed-spec"} and {t for *_, t in calls} == {4.0}
    assert [r["first"] for r in report["runs"]] == ["parent"] * 2 + ["change"] * 2 + ["parent"] * 2 + [
        "change"] * 2 + ["parent"] * 2
    summary = report["summary"]["lwr-fixed-spec"]
    rate = summary["trials_per_s"]  # pair 9 failed and leaves the aggregates; pair 8 is a tie
    assert rate["pair_ratios"] == [1.2, round(105 / 110, 4), 1.1, 1.0]
    assert rate["change_wins"] == "2 of 4" and rate["median_ratio_change_over_parent"] == 1.05
    assert rate["parent"] == {"median": 100.0, "q1": 97.5, "q3": 102.5, "n": 4}
    assert rate["change"]["median"] == 102.5 and rate["median_gap"] == 2.5 and rate["parent_iqr"] == 5.0
    assert summary["setup_s"]["change_wins"] == "0 of 4" and "peak_rss_mb" not in summary
    assert summary["all_correct"] is False and summary["failed"] == {"parent": 0, "change": 0}
    assert report["parent"] == {"checkout": "old", "commit": "abc", "src_sha256": "0123"}
    assert report["runs"][-1]["exit"] == 3 and report["runs"][-1]["metrics"] == {}
