"""The benchmark's tracer contract, held for every workload from this suite.

``perfbench/tracing.py`` wraps names in the package's modules: the learners
that ``experiments`` calls (positionally, with the sample source at a fixed
index), ``cli.run_experiment`` and the spans below them.  A change that
renames, re-routes or calls one of them by keyword breaks a traced bench run
that no other test here would see.  This module imports the bench's own code
and edits nothing under ``perfbench/``.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import tracing  # noqa: E402

TRIALS = 20


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_keeps_the_tracer_contract(name):
    wl = dataclasses.replace(run.WORKLOADS[name], trials=TRIALS)
    preds, seed = run.predictions(wl), run.repeat_seed(3, 0)
    plain = run.run_repeat(wl, seed, preds)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_repeat(wl, seed, preds)
    window = tracer.take()
    assert plain.problems == [] and traced.problems == []
    assert run.replay_problems(plain, traced, window, wl) == []
    assert len(window.trial_seconds) == TRIALS  # one traced learner call per trial
    assert len(window.trial_samples) == TRIALS and min(window.trial_samples) >= 1
