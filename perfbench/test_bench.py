"""Tests of the benchmark itself: negative controls, traced-run identity, contract.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from quditlearn import cli, experiments

SMALL = {name: dataclasses.replace(wl, trials=40) for name, wl in run.WORKLOADS.items()}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def run_main(monkeypatch, capsys, trace: int, small: bool = True, extra: tuple[str, ...] = ()) -> dict:
    if small:
        monkeypatch.setitem(run.WORKLOADS, "lwe-dense", SMALL["lwe-dense"])
    monkeypatch.setattr(run, "SETUP_PROCESSES", 1)
    argv = ["--workload", "lwe-dense", "--seed", "3", "--seconds", "0.05", "--trace", str(trace), *extra]
    assert run.main(argv) == 0
    return last_json(capsys)


def test_clean_run_has_no_failures(monkeypatch, capsys):
    result = run_main(monkeypatch, capsys, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 40
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])


def test_perturbed_report_fails(monkeypatch, capsys):
    original = cli.run_experiment

    def perturbed(config):
        report = original(config)
        return dataclasses.replace(report, empirical_rate=report.empirical_rate / 2)

    monkeypatch.setattr(cli, "run_experiment", perturbed)
    result = run_main(monkeypatch, capsys, trace=0, small=False)  # 40 trials are too few to see it
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_raising_run_fails(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(experiments, "lwe_learn", broken)
    result = run_main(monkeypatch, capsys, trace=0)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_per_layer_names_match_benchmark_json(monkeypatch, capsys):
    result = run_main(monkeypatch, capsys, trace=1)
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: m["unit"] for name, m in result["metrics"].items()}


def test_spans_form_a_tree(monkeypatch, capsys, tmp_path):
    path = tmp_path / "spans.jsonl"
    assert run_main(monkeypatch, capsys, trace=1, extra=("--spans", str(path)))["correct"]
    spans = {s["id"]: s for s in map(json.loads, path.read_text().splitlines())}
    roots = [s for s in spans.values() if s["parent"] == 0]
    assert roots and all(s["name"] == "cli.main" for s in roots)
    for span in spans.values():
        if span["parent"]:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


# Layers each workload never enters, by the design of its configuration.
IDLE = {
    "lwe-analytic": ("samples.materialize_dense", "dense.apply_qft_all", "dense.DenseState",
                     "ring.ring_sample_state", "ring.RingEmbedding.build", "learners.lwr_sample_spec"),
    "lwr-fixed-spec": ("samples.draw_sample_spec", "samples.materialize_dense", "dense.apply_qft_all",
                       "ring.ring_sample_state", "ring.RingEmbedding.build"),
    "lwe-dense": ("samples.outcome_distribution", "ring.ring_sample_state", "ring.RingEmbedding.build",
                  "learners.lwr_sample_spec"),
    "ring-global": ("samples.outcome_distribution", "samples.draw_sample_spec", "samples.draw_classical_sample",
                    "samples.materialize_dense", "learners.field_bv", "learners.test_candidate",
                    "learners.lwr_sample_spec"),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reproduces_untraced_run(name):
    wl = SMALL[name]
    plain, traced, windows = run.measure_traced(wl, 5, 0.0, tracing.Tracer())
    assert [r.problems for r in plain + traced] == [[], []]
    assert plain[0].text == traced[0].text
    metrics = tracing.layer_metrics(windows)
    assert len(windows[0].trial_samples) == wl.trials
    assert 1 <= metrics["learners.samples_per_trial.max"][0] <= wl.sample_budget
    for idle in IDLE[name]:
        assert metrics[f"{idle}.calls"][0] == 0, idle
    busy = {"lwe-analytic": "samples.outcome_distribution", "lwr-fixed-spec": "samples.outcome_distribution",
            "lwe-dense": "samples.materialize_dense", "ring-global": "ring.ring_sample_state"}[name]
    assert metrics[f"{busy}.calls"][0] > 0


def test_tracer_restores_originals():
    before = (cli.main, experiments.lwe_learn, tracing.DenseState.__init__)
    with tracing.Tracer().installed():
        assert cli.main is not before[0]
    assert (cli.main, experiments.lwe_learn, tracing.DenseState.__init__) == before


def test_directory_without_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lwe-dense", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
