#!/usr/bin/env python3
"""Scan the parity learner's per-draw probability bound across dimensions.

For each n, draws error assignments at the given flip rate and reports what
fraction satisfies P(j=s, j*=1) >= (1-delta)^2 (1-2*eta)^2 / 2, computed
exactly from the signed error sum.  The bound is a concentration statement
that only kicks in as n grows: at n=6 and eta=0.1 roughly 31% of draws
violate it, which is why the n=6 acceptance check at a 95% pass threshold
cannot go green.  At the defaults (seed 0, 20,000 draws per cell) the pass
fraction first reaches 0.95 at n = 9 for eta = 0.05, at n = 10 for
eta = 0.1 and at n = 12 for eta = 0.25, which still reads 0.813 at n = 10.
"""

import argparse

import numpy as np


def pass_fraction(n: int, eta: float, delta: float, draws: int, rng) -> float:
    size = 2**n
    threshold = (1 - delta) * (1 - 2 * eta) * size
    flips = rng.binomial(size, eta, size=draws)
    signed_sums = size - 2 * flips
    return float(np.mean(np.abs(signed_sums) >= threshold))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--draws", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.Philox(key=args.seed))
    print(f"delta = {args.delta}, draws per cell = {args.draws}")
    print("n    eta=0.05  eta=0.10  eta=0.25")
    for n in range(4, 15):
        row = [pass_fraction(n, eta, args.delta, args.draws, rng) for eta in (0.05, 0.10, 0.25)]
        print(f"{n:<4d} " + "  ".join(f"{x:8.3f}" for x in row))


if __name__ == "__main__":
    main()
