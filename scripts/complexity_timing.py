#!/usr/bin/env python3
"""Measure how learning wall time scales with lattice size.

Times real-variant learning on square lattices of i.i.d. Gaussian vectors,
fits t = c * U * log(U) over the measured sizes, and reports the per-point
relative residuals of the best single constant c.
"""

import argparse
import math
import time

import numpy as np

from lvlm import SymbolLattice, learn_real


def minimax_constant(times, x):
    """The c minimizing the worst relative residual of t = c * x, and that residual.

    The residual at point i is |1 - c * r_i| with r_i = x_i / t_i; its worst
    case is least where the two extremes balance, at c = 2 / (r_min + r_max).
    """
    r = np.asarray(x) / np.asarray(times)
    lo, hi = r.min(), r.max()
    return 2 / (lo + hi), float((hi - lo) / (hi + lo))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sides", type=int, nargs="+", default=[64, 128, 256, 512])
    parser.add_argument("--dims", type=int, default=2, help="observation vector length M")
    parser.add_argument("--states", type=int, default=4, help="model size N")
    parser.add_argument("--reps", type=int, default=3, help="repetitions per size (min is kept)")
    parser.add_argument("--seed", type=int, default=801)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    learn_real(SymbolLattice.real(rng.normal(size=(32, 32, args.dims))), 2, args.states)  # warm-up

    times = []
    for side in args.sides:
        best = math.inf
        for _ in range(args.reps):
            obs = SymbolLattice.real(rng.normal(size=(side, side, args.dims)))
            t0 = time.perf_counter()
            learn_real(obs, 2, args.states)
            best = min(best, time.perf_counter() - t0)
        print(f"U = {side * side:>7}  t = {best:8.3f} s")
        times.append(best)

    x = np.array([s * s * math.log(s * s) for s in args.sides], dtype=np.float64)
    c, residual = minimax_constant(times, x)
    print(f"\nfit: t = {c:.3e} * U * log(U)")
    print(f"worst per-point relative residual: {residual:.1%}")


if __name__ == "__main__":
    main()
