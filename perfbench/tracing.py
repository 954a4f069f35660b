"""Span tracer for the quditlearn benchmark.

``Tracer.installed()`` wraps the public functions of each quditlearn module
in the namespace they are called from, records one span per call, and
restores the originals on exit.  A span has a name, a start, an end and the
span that was open when it started; a name's self time is its duration minus
the time covered by its child spans.  Each name starts with the module
(layer) it belongs to: ``cli``, ``experiments``, ``learners``, ``samples``,
``dense``, ``ring``, ``field`` or ``verify``.

The wrappers only read arguments and results and draw no random numbers, so a
traced run produces the same report as an untraced one at the same seed; the
benchmark checks that byte for byte.

Besides times, the wrappers count the work that explains a trial's cost:
recovery attempts that abstain, candidate tests that reject, outcome-law
calls on a spec already seen, samples consumed per trial, and the
multiply-accumulates of the dense QFT computed from the state shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import statistics
import weakref
from time import perf_counter

from quditlearn import cli, experiments, learners, ring, samples
from quditlearn.dense import DenseState
from quditlearn.ring import RingEmbedding
from quditlearn.samples import SampleSpec

# Position of the sample-source argument of each learner entry point that the
# experiment runner calls; one call of one of these is one trial.
LEARNER_SOURCE_ARG = {"lwe_learn": 1, "lwr_learn": 2, "ring_lwe_global_learn": 1}


@dataclasses.dataclass(frozen=True)
class Window:
    """Aggregated spans and counts of one traced repeat."""

    stats: dict[str, list]  # span name -> [calls, total seconds, self seconds]
    counts: dict[str, int]
    trial_seconds: list[float]  # duration of each learner entry call
    trial_samples: list[int]  # samples each learner entry call drew


class Tracer:
    """Wraps quditlearn's public functions and aggregates their spans.

    ``keep_spans`` retains every raw span (id, parent id, name, start, end)
    for ``write_spans``; the aggregates are kept either way.
    """

    def __init__(self, keep_spans: bool = False):
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._next_id = 0
        self._trial: dict = {}
        self.spans: list[tuple[int, int, str, float, float]] | None = [] if keep_spans else None
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (not the raw spans) to start a new window."""
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: dict[str, int] = {}
        self.trial_seconds: list[float] = []
        self.trial_samples: list[int] = []
        self._seen_specs: weakref.WeakSet = weakref.WeakSet()

    def take(self) -> "Window":
        """The aggregates since the last reset; resets them."""
        window = Window(self.stats, self.counts, self.trial_seconds, self.trial_samples)
        self.reset()
        return window

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self) -> tuple[list, int]:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [0.0, self._next_id]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list, parent: int, start: float, end: float) -> float:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[0]
        if self.spans is not None:
            self.spans.append((frame[1], parent, name, start, end))
        return duration

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording one span per call, with optional hooks.

        ``before(args)`` returns the arguments to call ``fn`` with;
        ``after(result, seconds)`` runs once the span is closed.
        """

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._close(name, frame, parent, start, perf_counter())
            if after is not None:
                after(result, duration)
            return result

        return traced

    # --- hooks ---------------------------------------------------------------

    def _trial_hooks(self, source_arg: int):
        """Count the samples a learner call draws and whether it accepts a wrong secret."""

        def before(args):
            source = args[source_arg]
            trial = self._trial = {"samples": 0, "secret": None}

            def counted():
                trial["samples"] += 1
                sample = source()
                if isinstance(sample, SampleSpec):
                    trial["secret"] = sample.s
                return sample

            return args[:source_arg] + (counted,) + args[source_arg + 1 :]

        def after(result, seconds):
            self.trial_seconds.append(seconds)
            self.trial_samples.append(self._trial["samples"])
            if result.secret is not None and result.secret != self._trial["secret"]:
                self._count("wrong_accepts")

        return before, after

    def _ring_secret(self, args):
        emb, secret = args[0], args[1]
        self._trial["secret"] = tuple(x % emb.fp.q for x in secret)
        return args

    def _outcome_law(self, args):
        spec = args[0]
        if spec in self._seen_specs:
            self._count("outcome_repeats")
        else:
            self._seen_specs.add(spec)
        return args

    def _bv_outcome(self, outcome, seconds):
        if outcome.is_bot:
            self._count("bot")

    def _test_outcome(self, accepted, seconds):
        if not accepted:
            self._count("rejects")

    def _qft(self, args):
        state = args[0]
        q, registers, size = state.fp.q, state.num_registers, state.amps.size
        # A q x q matrix applied to every register: q multiply-accumulates per
        # amplitude per register, reading and writing the state once per pass.
        self._count("qft_cmacs", registers * q * size)
        self._count("qft_bytes", registers * 2 * state.amps.itemsize * size)
        return args

    # --- installation --------------------------------------------------------

    def _patches(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every traced name."""
        patches = []

        def add(owner, attr, name, before=None, after=None):
            patches.append((owner, attr, self.wrap(getattr(owner, attr), name, before, after)))

        add(cli, "main", "cli.main")
        add(cli, "run_experiment", "experiments.run_experiment")
        for attr, source_arg in LEARNER_SOURCE_ARG.items():
            add(experiments, attr, f"learners.{attr}", *self._trial_hooks(source_arg))
        add(experiments, "lwr_sample_spec", "learners.lwr_sample_spec")
        add(experiments, "outcome_distribution", "samples.outcome_distribution", self._outcome_law)
        add(learners, "outcome_distribution", "samples.outcome_distribution", self._outcome_law)
        add(learners, "field_bv", "learners.field_bv", after=self._bv_outcome)
        add(learners, "test_candidate", "learners.test_candidate", after=self._test_outcome)
        add(learners, "materialize_dense", "samples.materialize_dense")
        add(learners, "draw_classical_sample", "samples.draw_classical_sample")
        add(samples, "draw_sample_spec", "samples.draw_sample_spec")
        for attr in ("centered", "centered_abs", "mod_inverse"):
            add(learners, attr, f"field.{attr}")
        add(ring, "mod_inverse", "field.mod_inverse")
        add(ring, "ring_sample_state", "ring.ring_sample_state", self._ring_secret)
        add(DenseState, "__init__", "dense.DenseState")
        add(DenseState, "apply_qft_all", "dense.apply_qft_all", self._qft)
        add(DenseState, "measure_all", "dense.measure_all")
        build = RingEmbedding.__dict__["build"].__func__
        patches.append((RingEmbedding, "build", classmethod(self.wrap(build, "ring.RingEmbedding.build"))))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced names for the duration of the block, then restore them."""
        patches = self._patches()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """Write the retained spans as JSON lines, in the order they closed."""
        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.spans or ():
                record = {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")


def layer_metrics(windows: list[Window]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the windows of equal-sized traced repeats.

    Counts come from the first window, so they repeat exactly at a fixed seed.
    Times are the median over windows of the seconds spent in one repeat.
    Ratios read 0 where their denominator is 0.
    """
    first = windows[0]

    def calls(name):
        return first.stats.get(name, (0,))[0]

    def count(key):
        return first.counts.get(key, 0)

    def median_of(per_window):
        return statistics.median(per_window(w) for w in windows)

    def self_s(name):
        return median_of(lambda w: w.stats.get(name, (0, 0.0, 0.0))[2])

    def total_s(name):
        return median_of(lambda w: w.stats.get(name, (0, 0.0, 0.0))[1])

    def layer_self_s(layer):
        return median_of(lambda w: sum(v[2] for k, v in w.stats.items() if k.split(".", 1)[0] == layer))

    def ratio(num, den):
        return num / den if den else 0.0

    trial_us = sorted(s * 1e6 for w in windows for s in w.trial_seconds)
    samples = first.trial_samples
    attempts = calls("learners.field_bv")
    out: dict[str, tuple[float, str]] = {}

    def timed(name, *extra):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        for key, value, unit in extra:
            out[f"{name}.{key}"] = (value, unit)

    out["cli.self_s"] = (layer_self_s("cli"), "s")
    out["experiments.run_experiment.self_s"] = (self_s("experiments.run_experiment"), "s")  # the layer's only span
    out["learners.self_s"] = (layer_self_s("learners"), "s")
    out["learners.trial_us.p50"] = (_quantile(trial_us, 0.50), "us")
    out["learners.trial_us.p99"] = (_quantile(trial_us, 0.99), "us")
    timed("learners.field_bv", ("bot_frac", ratio(count("bot"), attempts), "frac"))
    timed("learners.test_candidate",
          ("reject_frac", ratio(count("rejects"), calls("learners.test_candidate")), "frac"))
    out["learners.wrong_accepts"] = (count("wrong_accepts"), "count")
    out["learners.samples_per_trial.mean"] = (ratio(sum(samples), len(samples)), "count")
    out["learners.samples_per_trial.max"] = (max(samples, default=0), "count")
    out["learners.lwr_sample_spec.calls"] = (calls("learners.lwr_sample_spec"), "count")
    out["learners.lwr_sample_spec.s"] = (total_s("learners.lwr_sample_spec"), "s")
    out["samples.self_s"] = (layer_self_s("samples"), "s")
    timed("samples.outcome_distribution",
          ("repeat_frac", ratio(count("outcome_repeats"), calls("samples.outcome_distribution")), "frac"))
    timed("samples.draw_sample_spec")
    out["samples.spec_draws_per_attempt"] = (ratio(calls("samples.draw_sample_spec"), attempts), "ratio")
    timed("samples.draw_classical_sample")
    timed("samples.materialize_dense")
    out["dense.self_s"] = (layer_self_s("dense"), "s")
    timed("dense.apply_qft_all", ("cmacs", count("qft_cmacs"), "count"), ("bytes", count("qft_bytes"), "B"))
    timed("dense.measure_all")
    timed("dense.DenseState")
    out["ring.self_s"] = (layer_self_s("ring"), "s")
    timed("ring.ring_sample_state")
    out["ring.RingEmbedding.build.calls"] = (calls("ring.RingEmbedding.build"), "count")
    out["ring.RingEmbedding.build.s"] = (total_s("ring.RingEmbedding.build"), "s")
    out["field.self_s"] = (layer_self_s("field"), "s")
    out["field.calls"] = (sum(v[0] for k, v in first.stats.items() if k.startswith("field.")), "count")
    return out


def _quantile(ordered: list[float], share: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]
