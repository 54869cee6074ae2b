#!/usr/bin/env python3
"""Bits-per-element table across array sizes and alphabet sizes.

Prints one row per (n, sigma) cell for each requested index kind, every
kind by default.

Example:
    python3 scripts/space_report.py --log-ns 12 14 16 --sigmas 4 16 256
"""

import argparse

import numpy as np

from topkolors import ChunkedTopK, OptimalTopK, SparseTopK, WaveletTopK, new_color_array

BUILDERS = {
    "wavelet": WaveletTopK,
    "sparse": SparseTopK,
    "optimal": OptimalTopK,
    "chunked": ChunkedTopK,
}


def make_array(rng, n, sigma):
    colors = rng.integers(0, sigma, size=n)
    colors[::max(1, n // sigma)][:sigma] = rng.permutation(sigma)
    prio = {c: int(p) for c, p in enumerate(rng.permutation(sigma * 4)[:sigma])}
    return new_color_array(colors, prio)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kinds", nargs="+", default=sorted(BUILDERS),
                    choices=sorted(BUILDERS))
    ap.add_argument("--log-ns", nargs="+", type=int, default=[12, 14, 16])
    ap.add_argument("--sigmas", nargs="+", type=int, default=[16])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'kind':>8} {'n':>8} {'sigma':>6} {'bits':>12} {'bits/elem':>10}")
    for kind in args.kinds:
        for log_n in args.log_ns:
            n = 1 << log_n
            for sigma in args.sigmas:
                if sigma > n:
                    continue
                arr = make_array(rng, n, sigma)
                index = BUILDERS[kind](arr)
                bits = index.measured_bits()
                print(f"{kind:>8} {n:>8} {sigma:>6} {bits:>12} {bits / n:>10.2f}")


if __name__ == "__main__":
    main()
