#!/usr/bin/env python3
"""Alternating benchmark pairs of two source checkouts, summarized as JSON.

    python scripts/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W --pairs N \\
        --seeds S [S ...] [--seconds 20] [--out FILE]

Each checkout is the root of a source tree with ``perfbench/run.py``.  Pair i
runs ``python3 perfbench/run.py --workload W --seed S_i --seconds X --trace 0``
in both checkouts, one after the other, with the parent first in even pairs
and the change first in odd ones.  ``--seeds`` gives one seed per pair, or a
single seed S for the seeds S, S + 1, ..., S + N - 1.

For every end-to-end metric that ``run.py`` prints, the summary gives each
side's median and quartiles over its runs, the per-pair ratios change /
parent, the pairs the change wins (ties count for neither), the median
ratio, the parent's IQR and the median gap (change - parent).  A metric is
won where it moves the way ``BENCHMARK.json`` (in the change checkout) says
is better.  Runs that exit nonzero or print no result line are kept as
failed runs and leave their pair out of the ratios.  The JSON, with every run,
goes to ``--out`` or standard output; one line per metric goes to standard
error.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive') over the per-run values"


def pair_order(index: int) -> tuple[str, str]:
    """The sides of pair ``index`` in the order they run."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> tuple[int, str]:
    """Run the benchmark once in ``checkout``; its exit code and standard output."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    return done.returncode, done.stdout


def parse_run(code: int, stdout: str) -> dict:
    """The result line (the last line, a JSON object) and the ``env:`` line of one run's output."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env: ")), {})
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        return {"correct": False, "failed": None, "attempted": None, "metrics": {}, "env": env, "exit": code}
    result.update(env=env, exit=code)
    if code != 0:
        result["correct"] = False
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric aggregates of one workload's runs; ``better`` maps a metric to "higher" or "lower"."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    complete = [p for _, p in sorted(pairs.items())
                if all(side in p and p[side]["exit"] == 0 and p[side]["metrics"] for side in SIDES)]
    summary = {}
    for name, direction in better.items():
        if not complete or not all(name in p[side]["metrics"] for p in complete for side in SIDES):
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in complete] for side in SIDES}
        ratios = [c / a if a else float("inf") for a, c in zip(values["parent"], values["change"])]
        wins = sum((c > a) if direction == "higher" else (c < a) for a, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_wins": f"{wins} of {len(complete)}",
            "median_ratio_change_over_parent": round(statistics.median(ratios), 4),
            "pair_ratios": [round(r, 4) for r in ratios],
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "median_gap": round(change["median"] - parent["median"], 4),
        }
    summary["failed"] = {side: sum(r["failed"] or 0 for r in runs if r["side"] == side) for side in SIDES}
    summary["all_correct"] = all(r["correct"] for r in runs)
    return summary


def bench(checkouts: dict[str, str], workload: str, seeds: list[int], seconds: float, better: dict[str, str],
          runner=run_side) -> dict:
    """Run the alternating pairs and return the report; ``runner`` is ``run_side``'s signature."""
    runs = []
    for index, seed in enumerate(seeds):
        order = pair_order(index)
        for side in order:
            result = parse_run(*runner(checkouts[side], workload, seed, seconds))
            runs.append({"workload": workload, "seed": seed, "pair": index, "side": side, "first": order[0],
                         "trace": 0, "seconds": seconds, **result})
    envs = {side: next((r["env"] for r in runs if r["side"] == side and r["env"]), {}) for side in SIDES}
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed S --seconds {seconds:g} --trace 0",
        **{side: {"checkout": checkouts[side], "commit": envs[side].get("commit"),
                  "src_sha256": envs[side].get("src_sha256")} for side in SIDES},
        "pairing": f"{len(seeds)} parent/change pairs at seeds {seeds}, the parent first in even pairs "
                   "(the order of each run is in 'first'); the runs were sequential, one at a time",
        "quartiles": QUARTILES,
        "summary": {workload: summarize(runs, better)},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if len(args.seeds) == 1:
        seeds = [args.seeds[0] + i for i in range(args.pairs)]
    elif len(args.seeds) == args.pairs:
        seeds = args.seeds
    else:
        parser.error(f"--seeds gives one seed per pair or a single first seed; got {len(args.seeds)} for "
                     f"{args.pairs} pairs")
    checkouts = {"parent": args.parent, "change": args.change}
    for side, checkout in checkouts.items():
        if not (Path(checkout) / "perfbench" / "run.py").is_file():
            parser.error(f"the {side} checkout {checkout} holds no perfbench/run.py")
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    report = bench(checkouts, args.workload, seeds, args.seconds, better)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    summary = report["summary"][args.workload]
    for name, entry in ((name, summary[name]) for name in better if name in summary):
        print(f"{args.workload} {name}: parent {entry['parent']['median']:g}, change {entry['change']['median']:g}"
                  f" ({entry['median_ratio_change_over_parent']:g}x), change wins {entry['change_wins']}, "
                  f"parent IQR {entry['parent_iqr']:g}, median gap {entry['median_gap']:g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
