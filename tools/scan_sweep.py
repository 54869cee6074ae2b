#!/usr/bin/env python3
"""Sweeps of the query paths of the sparse core, and rule fits.

For every core, range width and K, this times the sort scan, the mask scan
and the descent of _SparseCore on the same random starts, one call each,
and keeps each path's median microseconds.  Every answer is checked against
the others.  A second, kernel-only sweep times the two scans at K = 16 on
arrays of more alphabet sizes.

Two rules pick the path, and both are fitted here by grid search to the
least time lost against the cheapest path:

  kernel: the mask scan iff _MASK_POSITION * w + _MASK_COLOR * sigma is
      below w * log2(min(w, sigma)), else the sort scan;
  width: a scan iff b - a < scan_width(k), where scan_width(k) =
      max(2^levels[1], _STEP_WIDTH * steps + _UNIT_WIDTH * units) and
      units = min(sigma, k + 2^leaf fan) leaf needles plus
      min(2^levels[1], 2k + 16) root children when there is a middle level.

Each core's time lost is then reported for the earlier rule (the sort scan
iff b - a < max(2^levels[1], 1520 * steps + 6.4 * units) with k << leaf fan
leaf needles) and for the library's current one, read from the core.

The cores are the benchmark's arrays (N = 2^18 uniform colors, each
present) at sigma 4 (ChunkedTopK), 4096 (OptimalTopK and SparseTopK(f=3))
and 2^16 + 1 (OptimalTopK), and the docs workload's main core (sigma
2001), all from perfbench/workloads.py at --seed.  gather_scan_us times the
earlier scan kernel, a sort of rank_of[colors[a-1:b]], for reference.

    python3 tools/scan_sweep.py --seed 17 --out sweep.json

It takes about 15 seconds on one core and under 300 MB.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import topkolors as tk  # noqa: E402
import workloads  # noqa: E402
from topkolors import sparse  # noqa: E402

WIDTHS = [64, 256, 1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
          24576, 32768, 49152, 65536, 98304, 131072]
KS = [1, 3, 16, 127, 1024]
KERNEL_SIGMAS = [4, 64, 256, 1024, 2001, 4096, 16384, 65537]
PATHS = ("sort_us", "mask_us", "descent_us")
NEVER = 1 << 62


def array(seed: int, sigma: int):
    return workloads._array(seed, sigma, None, 1).make_input()


def cores(seed: int):
    """(name, core) pairs: every core the sweep times."""
    arr = array(seed, 4096)
    yield "optimal-4k", tk.OptimalTopK(arr).core
    yield "sparse-f3-4k", sparse.SparseTopK(arr, f=3).core
    yield "sigma-65537", tk.OptimalTopK(array(seed, (1 << 16) + 1)).core
    yield "low-sigma", tk.ChunkedTopK(array(seed, 4)).core
    yield "docs-main", workloads.docs(seed).build().index.core


def gather_scan(arr, colors, a, b, k):
    """The scan before ColorArray stored ranks: gather, then sort."""
    r = arr.rank_of[colors[a - 1 : b]]
    r.sort()
    last = np.empty(len(r), dtype=bool)
    last[-1] = True
    np.not_equal(r[1:], r[:-1], out=last[:-1])
    return r[last][: -k - 1 : -1].tolist()


def time_cell(core, colors, rng, w, k, starts, paths=PATHS):
    """Median microseconds of each path over `starts` random ranges."""
    n = len(colors)
    perf = time.perf_counter
    mask_from = core._mask_from
    times = {p: [] for p in paths}
    try:
        for _ in range(starts):
            a = int(rng.integers(1, n - w + 2))
            b = a + w - 1
            got = []
            for path in paths:
                if path == "descent_us":
                    run = core._descend
                elif path == "gather_scan_us":
                    def run(a, b, k):
                        return gather_scan(core._arr, colors, a, b, k)
                else:
                    core._mask_from = 0 if path == "mask_us" else NEVER
                    run = core._scan
                t0 = perf()
                got.append(run(a, b, k))
                times[path].append(perf() - t0)
            if not all(np.array_equal(g, got[0]) for g in got):
                raise AssertionError(f"paths disagree at {(a, b, k)}")
    finally:
        core._mask_from = mask_from
    return {p: round(statistics.median(t) * 1e6, 1) for p, t in times.items()}


def mask_cheaper(w, sigma, per_position, per_color) -> bool:
    return per_position * w + per_color * sigma < w * math.log2(min(w, sigma))


def units(levels, sigma, k) -> int:
    u = min(sigma, k + (1 << (levels[-1] - levels[-2])))
    if len(levels) > 2:
        u += min(1 << levels[1], 2 * k + sparse._FIRST_BATCH)
    return u


def width(levels, sigma, k, step, unit) -> int:
    return max(1 << levels[1], int(step * (len(levels) - 1)
                                   + unit * units(levels, sigma, k)))


def earlier_width(levels, sigma, k) -> int:
    u = min(sigma, k << (levels[-1] - levels[-2]))
    if len(levels) > 2:
        u += min(1 << levels[1], 2 * k + 16)
    return max(1 << levels[1], int(1520 * (len(levels) - 1) + 6.4 * u))


def best(row) -> float:
    return min(row[p] for p in PATHS if p in row)


def lost_share(rows, cost) -> float:
    return sum(cost(r) - best(r) for r in rows) / sum(best(r) for r in rows)


def fit_kernels(kernels: dict) -> dict:
    """(_MASK_POSITION, _MASK_COLOR) of least summed time lost between the
    two scans over every kernel cell."""
    rows = [(sigma, r) for sigma, rs in kernels.items() for r in rs]

    def cost(p, c):
        return sum(r["mask_us" if mask_cheaper(r["width"], sigma, p, c)
                       else "sort_us"] - best(r) for sigma, r in rows)

    grid = itertools.product(np.arange(5, 10.01, 0.2), np.arange(0.5, 6.01, 0.25))
    p, c = min(grid, key=lambda pc: cost(*pc))
    total = sum(best(r) for _, r in rows)
    return {"_MASK_POSITION": round(float(p), 1), "_MASK_COLOR": round(float(c), 2),
            "lost_share": round(cost(p, c) / total, 3)}


def rule_cost(core, row, step, unit, per_position, per_color):
    w, sigma, lv = row["width"], core._arr.sigma, core.levels
    if w - 1 < width(lv, sigma, row["k"], step, unit):
        cheaper = mask_cheaper(w, sigma, per_position, per_color)
        return row["mask_us" if cheaper else "sort_us"]
    return row["descent_us"]


def fit_width(swept: dict, kernel_fit: dict) -> dict:
    """(_STEP_WIDTH, _UNIT_WIDTH) of least summed lost share over the
    cores, under the fitted kernel rule."""
    pm = (kernel_fit["_MASK_POSITION"], kernel_fit["_MASK_COLOR"])

    def shares(step, unit):
        return {name: lost_share(rows, lambda r: rule_cost(core, r, step, unit, *pm))
                for name, (core, rows) in swept.items()}

    grid = itertools.product(range(4000, 20001, 500), range(5, 61, 5))
    step, unit = min(grid, key=lambda g: sum(shares(*g).values()))
    return {"_STEP_WIDTH": step, "_UNIT_WIDTH": unit,
            "lost_share": {k: round(v, 3) for k, v in shares(step, unit).items()}}


def check_library(core) -> None:
    """The library's rules are the ones this script fits."""
    lv, sigma, n = core.levels, core._arr.sigma, core._arr.n
    for k in KS:
        assert core.scan_width(k) == width(
            lv, sigma, k, sparse._STEP_WIDTH, sparse._UNIT_WIDTH), k
    pm = (sparse._MASK_POSITION, sparse._MASK_COLOR)
    m = core._mask_from
    assert m == n or mask_cheaper(m + 1, sigma, *pm), m
    assert m == 0 or not mask_cheaper(m, sigma, *pm), m


def library_cost(core, row) -> float:
    w = row["width"]
    if w - 1 < core.scan_width(row["k"]):
        return row["mask_us" if w - 1 >= core._mask_from else "sort_us"]
    return row["descent_us"]


def losses(core, rows) -> dict:
    """Per rule: microseconds spent above the cheapest path, summed over the
    rows, against the cheapest paths' sum, and the rows it got wrong."""
    lv, sigma = core.levels, core._arr.sigma

    def earlier(r):
        return r["sort_us" if r["width"] - 1 < earlier_width(lv, sigma, r["k"])
                 else "descent_us"]

    out = {"best_us": round(sum(best(r) for r in rows), 1)}
    for rule, cost in (("earlier", earlier), ("current", lambda r: library_cost(core, r))):
        lost = [cost(r) - best(r) for r in rows]
        out[rule] = {"lost_us": round(sum(lost), 1),
                     "lost_share": round(lost_share(rows, cost), 3),
                     "cells_wrong": sum(x > 0 for x in lost)}
    return out


def sweep(seed: int, starts: int):
    rng = np.random.default_rng(seed)
    kernels = {}
    for sigma in KERNEL_SIGMAS:
        core = tk.OptimalTopK(array(seed, sigma)).core
        colors = core._arr.colors
        kernels[sigma] = [
            {"width": w, **time_cell(core, colors, rng, w, 16, starts,
                                     ("sort_us", "mask_us"))}
            for w in WIDTHS]
    swept = {}
    for name, core in cores(seed):
        check_library(core)
        colors = core._arr.colors
        rows = []
        for w in WIDTHS:
            for i, k in enumerate(KS):
                # no K past the first that reaches sigma
                if i and KS[i - 1] >= core._arr.sigma:
                    continue
                rows.append({"width": w, "k": k, **time_cell(
                    core, colors, rng, w, k, starts, PATHS + ("gather_scan_us",))})
        swept[name] = (core, rows)
    return kernels, swept


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--starts", type=int, default=40,
                    help="random ranges timed per cell")
    ap.add_argument("--out", type=Path, help="write the JSON here")
    args = ap.parse_args(argv)
    kernels, swept = sweep(args.seed, args.starts)
    kernel_fit = fit_kernels(kernels)
    result = {
        "host": {"cores": len(os.sched_getaffinity(0)),
                 "cpu": platform.processor() or platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
        "seed": args.seed, "starts": args.starts,
        "library": {name: getattr(sparse, name) for name in (
            "_MASK_POSITION", "_MASK_COLOR", "_STEP_WIDTH", "_UNIT_WIDTH")},
        "fit": {"kernel": kernel_fit, "width": fit_width(swept, kernel_fit)},
        "kernels": {sigma: {"columns": list(rows[0]),
                            "rows": [list(r.values()) for r in rows]}
                    for sigma, rows in kernels.items()},
        "cores": {},
    }
    for name, (core, rows) in swept.items():
        sigma, n = core._arr.sigma, core._arr.n
        result["cores"][name] = {
            "n": n, "sigma": sigma, "levels": core.levels,
            "rank_bits": 8 * core._arr.ranks.itemsize,
            "mask_from": core._mask_from if core._mask_from < n else None,
            "scan_width": {k: core.scan_width(k) for k in KS},
            "earlier_scan_width": {k: earlier_width(core.levels, sigma, k) for k in KS},
            "loss": losses(core, rows),
            "columns": list(rows[0]),
            "rows": [list(r.values()) for r in rows],
        }
    # one line per row: a list of scalars stays on one line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(result, indent=1))
    if args.out:
        args.out.write_text(text + "\n")
    print(json.dumps(result["fit"]))
    for name, c in result["cores"].items():
        print(name, json.dumps(c["loss"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
