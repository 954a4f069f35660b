"""Run the benchmark on seeds 1 to 10, twice, and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py [--out FILE]

Runs ``perfbench/run.py --trace 0`` for every workload in BENCHMARK.json and
every seed of ``SEEDS``, one run at a time, for the benchmark's
``run_seconds``; then runs the whole set again, so that the two sets are
taken tens of minutes apart.  For each set, workload and end-to-end metric it
prints the values, their median and quartiles, and the interquartile distance
as a share of the median next to the metric's bound; the same for the
unscaled ``trials_per_s`` and ``setup_s`` each run prints.  ``--out`` also
makes one ``--trace 1`` run per workload and writes all values, the unscaled
figures, the per-layer metrics and the environment as JSON.

Exits 1 if a run reports a failure, if a spread is not below a third of its
bound, or if a metric's median in the second set is worse than in the first
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict | None]:
    """(last-line result, environment, unscaled figures) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()

    def tagged(tag):
        return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)), None)

    return json.loads(lines[-1]), tagged("env: "), tagged("unscaled: ")


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def report(label: str, values: list[float], unit: str, bound: float | None = None) -> dict[str, float]:
    stats = summary(values)
    limit = "" if bound is None else f", bound {bound}" + ("" if stats["spread"] < bound / 3 else
                                                          " NOT below a third of the bound")
    print(f"  {label}: median {stats['median']:.6g} {unit}, q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
          f"spread {stats['spread']:.3f} of median{limit}")
    print(f"    values: {' '.join(f'{v:.6g}' for v in values)}")
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every value, the per-layer metrics and the environment here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    env = None
    sets: list[dict] = []
    ok = True
    for number in range(1, SETS + 1):
        record: dict = {}
        for workload in (w["name"] for w in bench["workloads"]):
            values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
            unscaled: list[dict] = []
            failed = 0
            for seed in SEEDS:
                result, env, raw = run_once(workload, seed, seconds, 0)
                failed += result["failed"] + (not result["correct"])
                unscaled.append(raw)
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            ok &= failed == 0
            print(f"set {number}, {workload}: seeds {SEEDS.start}..{SEEDS.stop - 1}, {failed} failures")
            spreads = {}
            for metric in bench["end_to_end"]:
                spreads[metric["name"]] = stats = report(
                    metric["name"], values[metric["name"]], metric["unit"], metric["bound"])
                ok &= stats["spread"] < metric["bound"] / 3
            for name in ("trials_per_s", "setup_s"):
                spreads[f"{name}.unscaled"] = report(
                    f"{name} unscaled", [raw[name]["median"] for raw in unscaled], units[name])
            record[workload] = {"failed": failed, "end_to_end": values, "spread": spreads, "unscaled": unscaled}
        sets.append(record)

    print("second set against the first:")
    for workload in sets[0]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[workload]["spread"][name]["median"] for s in sets)
            change = (second - first) / first
            worse = change if metric["better"] == "lower" else -change
            ok &= worse <= bound
            print(f"  {workload} {name}: {first:.6g} then {second:.6g}, {100 * change:+.1f}%, bound {bound}"
                  + ("" if worse <= bound else " WORSE by more than the bound"))

    per_layer = {}
    if args.out:
        for workload in sets[0]:
            traced, _, _ = run_once(workload, SEEDS.start, seconds, 1)
            ok &= traced["correct"]
            per_layer[workload] = {k: m["value"] for k, m in traced["metrics"].items()}
            print(f"  {workload} trace.overhead_pct: {per_layer[workload]['trace.overhead_pct']:.3g} %")
        Path(args.out).write_text(json.dumps(
            {"env": env, "run_seconds": seconds, "seeds": list(SEEDS), "sets": sets, "per_layer": per_layer},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
