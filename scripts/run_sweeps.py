#!/usr/bin/env python3
"""Reproduce the headline success-rate tables as CSV sweeps.

Emits four files into --outdir:
  noiseless.csv   exact vs empirical (q-1)/q recovery across field sizes
  k_sweep.csv     single-attempt success vs noise magnitude at q=101
  m_sweep.csv     end-to-end recovery vs test-sample count M at q=11, k=1
  v_sweep.csv     single-attempt success vs subset size v at q=101, n=3, k=1:
                  about 0.32 v/q^n, from v = 10^3 up to the full q^n
"""

import argparse
import os

from quditlearn import ExperimentConfig, NoiseModel, sweep


def noiseless_configs(trials, seed):
    return [
        ExperimentConfig(problem="lwe", q=q, n=n, trials=trials, seed=seed,
                         noise=NoiseModel.none(), L=1, M=0)
        for q, n in [(3, 2), (5, 2), (7, 3), (11, 2), (101, 1)]
    ]


def k_sweep_configs(trials, seed):
    return [
        ExperimentConfig(problem="lwe", q=101, n=1, trials=trials, seed=seed + k,
                         noise=NoiseModel.bounded_uniform(k), L=1, M=0, k=k)
        for k in range(1, 6)
    ]


def m_sweep_configs(trials, seed):
    return [
        ExperimentConfig(problem="lwe", q=11, n=1, trials=trials, seed=seed + m,
                         noise=NoiseModel.bounded_uniform(1), L=3, M=m, k=1)
        for m in range(0, 4)
    ]


def v_sweep_configs(trials, seed):
    return [
        ExperimentConfig(problem="lwe", q=101, n=3, v=v, trials=trials, seed=seed + i,
                         noise=NoiseModel.bounded_uniform(1), L=1, M=0, k=1)
        for i, v in enumerate([10**3, 10**4, 10**5, 101**3])
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    for name, configs in [
        ("noiseless", noiseless_configs(args.trials, args.seed)),
        ("k_sweep", k_sweep_configs(args.trials, args.seed)),
        ("m_sweep", m_sweep_configs(args.trials, args.seed)),
        ("v_sweep", v_sweep_configs(args.trials, args.seed)),
    ]:
        path = os.path.join(args.outdir, f"{name}.csv")
        reports = sweep(configs, csv_path=path)
        print(f"{name}: {len(reports)} rows -> {path}")
        for report in reports:
            exact = "" if report.exact_probability is None else f" exact={report.exact_probability:.4f}"
            print(f"  q={report.config.q} n={report.config.n} v={report.config.effective_v} "
                  f"k={report.config.effective_k} M={report.config.M}: rate={report.empirical_rate:.4f}{exact}")


if __name__ == "__main__":
    main()
