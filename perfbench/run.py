"""Benchmark of ``quditlearn experiment``: Monte Carlo trials per second.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lwe-analytic --seed 1 --seconds 20 --trace 0

Each workload is one documented ``quditlearn experiment`` configuration, run
in this process through ``quditlearn.cli.main`` so the command-line layer is
inside the measurement.  The loop is closed with one caller: a repeat is one
``experiment`` call of a fixed number of trials, and the next repeat starts
when the previous one returns.  Repeats run until ``--seconds`` have passed.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:
trials per second (median over repeats), set-up time (median over fresh
processes), and peak resident memory.  Both times are scaled to a fixed
machine speed by the reference work of ``calibrate``, timed next to each
measurement; the unscaled figures are printed on an ``unscaled:`` line.
``--trace 1`` alternates untraced and traced repeats at the same seed and
reports the per-layer metrics of ``tracing.layer_metrics`` plus the tracing
overhead.

Every repeat passes a correctness gate or counts all its trials as failed:
the command exits 0, its report echoes the configuration, its exact
per-attempt probability matches a prediction computed here independently,
and its success count lies within ``Z_MAX`` standard deviations of the
predicted end-to-end success.  One repeat per run is replayed under the
tracer (or, with ``--trace 1``, every traced repeat has an untraced twin);
the two canonical reports must be byte-identical and no trial may draw more
than its sample budget.  ``quditlearn.verify.run_verification`` must pass,
once per run, untimed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit, its spread and sample count, the failed
share, and the environment (commit, source hash, CPUs, Python, numpy, BLAS).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Z_MAX = 5.0  # per-repeat gate on the success count; a false alarm is ~6e-7 per repeat
SETUP_PROCESSES = 21  # fresh processes timed per run for setup_s
TRIAL_BITS = 20  # trials per repeat stay below 2**TRIAL_BITS
MAX_REPEATS = 1024
WARMUP = MAX_REPEATS - 1  # repeat index reserved for warm-up and set-up runs


@dataclasses.dataclass(frozen=True)
class Workload:
    """A ``quditlearn experiment`` configuration and the trials of one repeat."""

    flags: tuple[str, ...]
    trials: int

    @property
    def opts(self) -> dict[str, str]:
        return dict(zip(self.flags[::2], self.flags[1::2]))

    @property
    def sample_budget(self) -> int:
        """L(1+M); the ring learner takes no --L and draws a single sample."""
        opts = self.opts
        return int(opts["--L"]) * (1 + int(opts["--M"])) if "--L" in opts else 1

    def argv(self, seed: int, trials: int | None = None) -> list[str]:
        return ["experiment", *self.flags, "--trials", str(trials or self.trials), "--seed", str(seed)]


# Trial counts size one repeat to roughly half a second on a 2-core x86 box.
WORKLOADS = {
    # The paper's headline configuration on the analytic engine: a fresh
    # histogram spec per attempt, so no outcome law is ever recomputed.
    "lwe-analytic": Workload(
        ("--problem", "lwe", "--q", "101", "--n", "2", "--noise", "gaussian", "--sigma", "1",
         "--k", "2", "--L", "93", "--M", "1"), 800),
    # One deterministic rounding spec reused by every attempt: repeated inputs
    # dominate, and the runner set-up (lwr_sample_spec) is costly.
    "lwr-fixed-spec": Workload(
        ("--problem", "lwr", "--q", "257", "--n", "1", "--p", "16", "--L", "20", "--M", "1"), 200),
    # Small dense states (2,401 amplitudes): per-call costs of the explicit
    # error map, materialize_dense and the QFT.
    "lwe-dense": Workload(
        ("--problem", "lwe", "--q", "7", "--n", "3", "--noise", "bounded", "--k", "1",
         "--L", "3", "--M", "2", "--engine", "dense"), 400),
    # Large dense states (28,561 amplitudes) from the ring embedding: QFT and
    # measurement dominate.
    "ring-global": Workload(
        ("--problem", "ring-global", "--q", "13", "--m", "4", "--noise", "global", "--k", "1"), 250),
}

if not (SRC / "quditlearn" / "__init__.py").is_file():
    raise SystemExit(f"error: no quditlearn source under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    from quditlearn import cli
    from quditlearn.verify import run_verification

    import calibrate
    import tracing
except ImportError as exc:
    raise SystemExit(f"error: cannot import quditlearn from {SRC}: {exc}") from exc


def repeat_seed(seed: int, index: int) -> int:
    """Experiment seed of repeat ``index``.

    The harness keys trial i of seed s by s XOR i, so seeds are spaced
    2**TRIAL_BITS apart: no two trials of a run, or of two runs with
    different benchmark seeds, share a random stream.
    """
    return (seed * MAX_REPEATS + index) << TRIAL_BITS


# --- independent predictions -----------------------------------------------------


def _p_correct_fixed(q: int, n: int, histogram: dict[int, int]) -> float:
    """Per-attempt success of a spec with a fixed error histogram (value -> count)."""
    v = sum(histogram.values())
    total = 0.0
    for j in range(1, q):
        amp = sum(c * cmath.exp(2j * math.pi * b * j / q) for b, c in histogram.items())
        total += abs(amp) ** 2
    return total / (q ** (n + 1) * v)


def _p_correct_iid(q: int, n: int, weights: dict[int, float]) -> float:
    """Expected per-attempt success over i.i.d. errors on all of F_q^n.

    E|sum_a w^(e_a j)|^2 = v + v(v-1)|phi(j)|^2 with phi the characteristic
    function of one error.
    """
    v = q**n
    total = 0.0
    for j in range(1, q):
        phi = sum(w * cmath.exp(2j * math.pi * b * j / q) for b, w in weights.items())
        total += 1 + (v - 1) * abs(phi) ** 2
    return total / q ** (n + 1)


def _end_to_end(p_ac: float, q: int, k: int, L: int, M: int) -> float:
    """First accept among L attempts; a wrong candidate passes each test w.p. (2k+1)/q."""
    p_aw = (1 - 1 / q - p_ac) * ((2 * k + 1) / q) ** M
    return p_ac / (p_ac + p_aw) * (1 - (1 - p_ac - p_aw) ** L)


def predictions(wl: Workload) -> list[tuple[float, float]]:
    """(per-attempt success, end-to-end success) pairs the report may match."""
    opts = wl.opts
    problem, q = opts["--problem"], int(opts["--q"])
    if problem == "ring-global":
        m = int(opts["--m"])
        p = ((q - 1) / q) ** sum(1 for x in range(1, m + 1) if math.gcd(x, m) == 1)
        return [(p, p)]
    n, L, M = int(opts["--n"]), int(opts["--L"]), int(opts["--M"])
    if problem == "lwe":
        k = int(opts["--k"])
        if opts["--noise"] == "gaussian":
            sigma = float(opts["--sigma"])
            raw = {b: math.exp(-b * b / (2 * sigma * sigma)) for b in range(-k, k + 1)}
        else:
            raw = {b: 1.0 for b in range(-k, k + 1)}
        weights = {b: w / math.fsum(raw.values()) for b, w in raw.items()}
        p_ac = _p_correct_iid(q, n, weights)
        return [(p_ac, _end_to_end(p_ac, q, k, L, M))]
    # lwr: round to Z_p and decode back; the residual is the error of a.s.
    p = int(opts["--p"])
    k = -(-q // (2 * p)) + 1

    def residual(x):
        decoded = (2 * q * ((2 * p * x + q) // (2 * q) % p) + p) // (2 * p) % q
        r = (decoded - x) % q
        return r - q if r > q // 2 else r

    nonzero_secret = Counter(residual(x) for x in range(q))  # a.s uniform over F_q
    hists = [{b: c * q ** (n - 1) for b, c in nonzero_secret.items()}, {residual(0): q**n}]
    return [(pc, _end_to_end(pc, q, k, L, M)) for pc in (_p_correct_fixed(q, n, h) for h in hists)]


# --- the gate ---------------------------------------------------------------------------


def canonical(stdout: str) -> str:
    """The report without its execution-dependent wall-time line."""
    return "\n".join(line for line in stdout.splitlines() if not line.startswith("wall_time_ms:"))


def check_report(
    text: str, wl: Workload, seed: int, preds: list[tuple[float, float]]
) -> tuple[list[str], tuple[int, float, float] | None]:
    """Problems with one report, and its (successes, predicted mean, variance)."""
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    try:
        trials, echoed_seed = int(fields["trials"]), int(fields["seed"])
        exact, rate = float(fields["exact_prob"]), float(fields["empirical_rate"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable report: {exc!r}"], None
    problems = []
    if (trials, echoed_seed, fields.get("problem")) != (wl.trials, seed, wl.opts["--problem"]):
        problems.append(f"report echoes trials={trials} seed={echoed_seed}, expected {wl.trials} and {seed}")
    matched = [P for p_ac, P in preds if math.isclose(exact, p_ac, rel_tol=1e-9)]
    if not matched:
        return problems + [f"exact_prob {exact!r} matches no prediction {[p for p, _ in preds]}"], None
    P = matched[0]
    tally = (round(rate * trials), trials * P, trials * P * (1 - P))
    z = z_score([tally])
    if abs(z) > Z_MAX:
        problems.append(f"{tally[0]}/{trials} successes against predicted {P:.6f}: z = {z:.2f}")
    return problems, tally


def z_score(tallies: list[tuple[int, float, float]]) -> float:
    """Deviation of the pooled success count from its prediction, in standard deviations."""
    deviation = sum(s - mean for s, mean, _ in tallies)
    variance = sum(var for _, _, var in tallies)
    if variance == 0:  # success certain to float precision, e.g. an LWR secret of 0
        return 0.0 if abs(deviation) < 0.5 else math.inf
    return deviation / math.sqrt(variance)


@dataclasses.dataclass
class Repeat:
    """One ``experiment`` call: its seed, wall seconds, canonical report and problems."""

    seed: int
    seconds: float
    text: str | None
    problems: list[str]
    tally: tuple[int, float, float] | None = None  # successes, predicted mean, variance
    reference: float = calibrate.REFERENCE_SECONDS  # reference seconds timed around the repeat


def run_repeat(wl: Workload, seed: int, preds: list[tuple[float, float]]) -> Repeat:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(wl.argv(seed))
    except Exception as exc:  # noqa: BLE001 - a run that raises fails its trials; measuring goes on
        return Repeat(seed, time.perf_counter() - start, None, [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    if code != 0:
        return Repeat(seed, seconds, None, [f"exit code {code}"])
    text = canonical(out.getvalue())
    return Repeat(seed, seconds, text, *check_report(text, wl, seed, preds))


def replay_problems(plain: Repeat, traced: Repeat, window: tracing.Window, wl: Workload) -> list[str]:
    """A traced repeat must reproduce its untraced twin and respect the sample budget."""
    problems = []
    if plain.text is None or plain.text != traced.text:
        problems.append("traced and untraced reports at the same seed differ")
    if max(window.trial_samples, default=0) > wl.sample_budget:
        problems.append(f"a trial drew {max(window.trial_samples)} samples, budget {wl.sample_budget}")
    return problems


# --- measurement ------------------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float) -> tuple[list[Repeat], float]:
    """Untraced repeats for ``seconds``, then a traced replay of the first; peak RSS in MB."""
    preds = predictions(wl)
    repeats: list[Repeat] = []
    references = [calibrate.reference_seconds()]
    deadline = time.perf_counter() + seconds
    while not repeats or (time.perf_counter() < deadline and len(repeats) < WARMUP):
        repeats.append(run_repeat(wl, repeat_seed(seed, len(repeats)), preds))
        references.append(calibrate.reference_seconds())
        repeats[-1].reference = (references[-2] + references[-1]) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    tracer = tracing.Tracer()
    with tracer.installed():
        replay = run_repeat(wl, repeats[0].seed, preds)
    repeats[0].problems += replay.problems + replay_problems(repeats[0], replay, tracer.take(), wl)
    return repeats, peak_rss_mb


def measure_traced(
    wl: Workload, seed: int, seconds: float, tracer: tracing.Tracer
) -> tuple[list[Repeat], list[Repeat], list[tracing.Window]]:
    """Pairs of untraced and traced repeats at one seed, alternating which runs first."""
    preds = predictions(wl)
    plain, traced, windows = [], [], []
    deadline = time.perf_counter() + seconds
    while not plain or (time.perf_counter() < deadline and len(plain) < WARMUP):
        index = len(plain)
        for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.installed():
                    traced.append(run_repeat(wl, repeat_seed(seed, index), preds))
                windows.append(tracer.take())
            else:
                plain.append(run_repeat(wl, repeat_seed(seed, index), preds))
        traced[-1].problems += replay_problems(plain[-1], traced[-1], windows[-1], wl)
    return plain, traced, windows


SETUP_SCRIPT = """
import contextlib, io, sys, time
import numpy
start = time.perf_counter()
from quditlearn import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
elapsed = time.perf_counter() - start
if code != 0:
    sys.exit(code)
import calibrate
print(repr(elapsed), repr(calibrate.reference_seconds(5)))
"""


def measure_setup(wl: Workload, seed: int) -> list[tuple[float, float]]:
    """Per fresh process: seconds to import quditlearn (numpy loaded) and run one trial,
    and the reference seconds timed right after."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT / "perfbench"))))
    argv = wl.argv(repeat_seed(seed, WARMUP), trials=1)
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
        elapsed, reference = proc.stdout.split()[-2:]
        times.append((float(elapsed), float(reference)))
    return times


def verification_problems() -> tuple[list[str], float]:
    start = time.perf_counter()
    results = run_verification()
    seconds = time.perf_counter() - start
    return [f"verify: {r.name} failed: {r.detail}" for r in results if not r.passed], seconds


# --- environment and output ---------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "quditlearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, first and third quartile (the median for all three when there is one value), and count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: list[float]) -> str:
    return "q1 {q1:.6g}, q3 {q3:.6g}, n={n}".format(**quartiles(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="with --trace 1, write every span to this JSON-lines file")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** (64 - TRIAL_BITS) // MAX_REPEATS:
        parser.error("--seed must lie in [0, 2**34)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]

    env = environment()
    print(f"env: {json.dumps(env)}")
    # Warm-up: fills the QFT, ring-table, vector-table and noise caches.
    run_repeat(wl, repeat_seed(args.seed, WARMUP), predictions(wl))

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        tracer = tracing.Tracer(keep_spans=args.spans is not None)
        plain, traced, windows = measure_traced(wl, args.seed, args.seconds, tracer)
        repeats, distinct = plain + traced, plain  # a traced repeat replays its untraced twin
        verify_problems, verify_s = verification_problems()
        overhead = statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain) - 1
        metrics.update(tracing.layer_metrics(windows))
        metrics["verify.run_verification.s"] = (verify_s, "s")
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        if args.spans:
            tracer.write_spans(args.spans)
        print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
              f"repeats of {wl.trials} trials, closed loop, one caller; sample budget L(1+M) = "
              f"{wl.sample_budget} per trial; {sum(len(w.trial_seconds) for w in windows)} traced trial spans")
    else:
        setup = measure_setup(wl, args.seed)
        repeats, peak_rss_mb = measure(wl, args.seed, args.seconds)
        distinct = repeats
        verify_problems, _ = verification_problems()
        # Both times are scaled to the machine speed at which the reference takes REFERENCE_SECONDS.
        raw_rates = [wl.trials / r.seconds for r in repeats]
        rates = [rate * r.reference / calibrate.REFERENCE_SECONDS for rate, r in zip(raw_rates, repeats)]
        raw_setup = [elapsed for elapsed, _ in setup]
        setup_s = [elapsed * calibrate.REFERENCE_SECONDS / reference for elapsed, reference in setup]
        metrics["trials_per_s"] = (statistics.median(rates), "1/s")
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"workload {args.workload} seed {args.seed}: {len(repeats)} repeats of {wl.trials} trials, "
              f"closed loop, one caller")
        print(f"  trials_per_s over repeats: {spread(rates)}")
        print(f"  setup_s over fresh processes: {spread(setup_s)}")
        # The figures before scaling, for checking what the scaling does.
        print("unscaled: " + json.dumps({
            "trials_per_s": quartiles(raw_rates),
            "setup_s": quartiles(raw_setup),
            "reference_s_repeats": quartiles([r.reference for r in repeats]),
            "reference_s_setup": quartiles([reference for _, reference in setup]),
        }))

    tallies = [r.tally for r in distinct if r.tally is not None]
    pooled_z = z_score(tallies) if tallies else 0.0
    run_problems = verify_problems + ([f"pooled z = {pooled_z:.2f} over all reports"] if abs(pooled_z) > Z_MAX else [])
    attempted = wl.trials * len(repeats)
    failed = attempted if run_problems else wl.trials * sum(1 for r in repeats if r.problems)
    problems = run_problems + [f"repeat seed {r.seed}: {p}" for r in repeats for p in r.problems]
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} trials)")
    print(f"gate: pooled z {pooled_z:.2f} over {len(tallies)} reports, max |z| "
          f"{max((abs(z_score([t])) for t in tallies), default=0.0):.2f} (limit {Z_MAX}); "
          f"verification {'FAILED' if verify_problems else 'passed'}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
