#!/usr/bin/env python3
"""Reproduce the headline success-rate tables as CSV sweeps.

Emits four files into --outdir:
  noiseless.csv   exact vs empirical (q-1)/q recovery across field sizes
  k_sweep.csv     single-attempt success vs noise magnitude at q=101
  m_sweep.csv     end-to-end recovery vs test-sample count M at q=11, k=1
  v_sweep.csv     single-attempt success vs subset size v at q=101, n=3, k=1:
                  about 0.32 v/q^n, from v = 10^3 up to the full q^n
and prints each row's empirical rate next to predicted=, the end-to-end
success of its L attempts (``predicted_rate``), so that rows with L > 1 are
compared against a rate over L attempts and not against one attempt.

The harness keys trial t of an experiment at seed s by s XOR t, so two rows
whose seeds differ only in the low bits would replay each other's trials.
Row r (counted across all four tables, in the order above) of --seed S runs
at seed (S * MAX_ROWS + r) * 2^20: every row of every --seed has its own
streams as long as --trials stays at or below 2^20. The secret is drawn at
trial index 2^63, so --seed is kept below 2^37, where every row seed stays
below 2^63 and no row's secret key is another row's trial key.
"""

import argparse
import os

from quditlearn import ExperimentConfig, NoiseModel, sweep

TRIAL_BITS = 20  # row seeds are 2^20 apart, so trial indices below 2^20 never reach another row
MAX_ROWS = 64  # rows per --seed, more than the four tables hold
MAX_SEED = 2 ** (63 - TRIAL_BITS) // MAX_ROWS  # keeps every row seed below 2^63, the secret's index


def noiseless_configs(trials):
    return [
        dict(problem="lwe", q=q, n=n, trials=trials, noise=NoiseModel.none(), L=1, M=0)
        for q, n in [(3, 2), (5, 2), (7, 3), (11, 2), (101, 1)]
    ]


def k_sweep_configs(trials):
    return [
        dict(problem="lwe", q=101, n=1, trials=trials, noise=NoiseModel.bounded_uniform(k), L=1, M=0, k=k)
        for k in range(1, 6)
    ]


def m_sweep_configs(trials):
    return [
        dict(problem="lwe", q=11, n=1, trials=trials, noise=NoiseModel.bounded_uniform(1), L=3, M=m, k=1)
        for m in range(0, 4)
    ]


def v_sweep_configs(trials):
    return [
        dict(problem="lwe", q=101, n=3, v=v, trials=trials, noise=NoiseModel.bounded_uniform(1), L=1, M=0, k=1)
        for v in [10**3, 10**4, 10**5, 101**3]
    ]


def predicted_rate(p_ac, q, k, L, M):
    """End-to-end success of L attempts that each pass M test samples at bound k.

    p_ac is the single-attempt success probability; a wrong candidate (all
    non-abstaining mass but p_ac) passes each test sample with probability
    (2k+1)/q, and the first accepted attempt ends the run.
    """
    p_aw = (1 - 1 / q - p_ac) * ((2 * k + 1) / q) ** M
    return p_ac / (p_ac + p_aw) * (1 - (1 - p_ac - p_aw) ** L)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not 1 <= args.trials <= 2**TRIAL_BITS:
        parser.error(f"--trials must lie in [1, 2**{TRIAL_BITS}]")
    if not 0 <= args.seed < MAX_SEED:
        parser.error("--seed must lie in [0, 2**37)")

    os.makedirs(args.outdir, exist_ok=True)
    row = args.seed * MAX_ROWS
    for name, rows in [
        ("noiseless", noiseless_configs(args.trials)),
        ("k_sweep", k_sweep_configs(args.trials)),
        ("m_sweep", m_sweep_configs(args.trials)),
        ("v_sweep", v_sweep_configs(args.trials)),
    ]:
        configs = [ExperimentConfig(seed=(row + i) << TRIAL_BITS, **fields) for i, fields in enumerate(rows)]
        row += len(rows)
        path = os.path.join(args.outdir, f"{name}.csv")
        reports = sweep(configs, csv_path=path)
        print(f"{name}: {len(reports)} rows -> {path}")
        for report in reports:
            c = report.config
            predicted = "" if report.exact_probability is None else (
                f" predicted={predicted_rate(report.exact_probability, c.q, c.effective_k, c.L, c.M):.4f}")
            print(f"  q={c.q} n={c.n} v={c.effective_v} k={c.effective_k} L={c.L} M={c.M}: "
                  f"rate={report.empirical_rate:.4f}{predicted}")


if __name__ == "__main__":
    main()
