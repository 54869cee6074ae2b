#!/usr/bin/env python3
"""Sweeps of the query paths of the sparse core, and rule fits.

For every core, range width and K, this times the sort scan, the count
scan (column mask_us: the kernel from _mask_from on, which counts the
range's ranks in a sigma-long array) and the descent of _SparseCore on the
same random starts, one call each, and keeps each path's median
microseconds.  Every answer is checked against the others.  A second,
kernel-only sweep times the two scans at K = 16 on arrays of more alphabet
sizes.

Two rules pick the path, and both are fitted here by grid search to the
least time lost against the cheapest path:

  kernel: the count scan iff _MASK_POSITION * w + _MASK_COLOR * sigma is
      below w * log2(min(w, sigma)), else the sort scan;
  width: a scan iff b - a < scan_width(k), where scan_width(k) =
      max(2^levels[1], _STEP_WIDTH * steps + _UNIT_WIDTH * units) and
      units = min(sigma, k + 2^leaf fan) leaf needles plus
      min(2^levels[1], k + 16) root children when there is a middle level,
      and min(sigma, k + 16) leaves at a flat root.

The fits search KERNEL_GRID and WIDTH_GRID, name any constant that lands
on its grid's edge, and price the library's pair on the same cells.

Each core's time lost is then reported under the library's rule ("current"),
read from the core.

A third sweep, --levels, compares level sets.  For every sigma in
LEVEL_SIGMAS and N in LEVEL_NS it builds a uniform array and a skewed one,
whose first half holds only the max(1, sigma / 64) lowest-ranked colors,
and a _SparseCore on each candidate level set: SparseTopK(f=2)'s stride
rule ("stride"), the flat {0, h} (with its rank-group summary past
h = 10, whose bits count) and {0, m, h} for every m from h/3 to 2h/3,
where h = ceil(log2 sigma).  Each cell (input, width, K) times every
level set's descent on the same random starts (inside the skewed half on
the skewed input) and the library's scan once; a level set's cost in a
cell is the cheaper of its descent and the scan.  Per shape, the pick is
the level set of least summed cost whose bits per element are no more
than the stride rule's (plus 1 %) and whose cost on no cell, uniform or
skewed, exceeds the stride rule's by more than LEVEL_NOISE; the report
says whether fitted_levels(n, sigma) is that pick or how much slower it is.

Before the level sweep, --levels runs the flat root's sweep: at every
(N, sigma) in ROOT_SHAPES, on a uniform, a skewed and a scattered array
(ROOT_INPUTS), it times the flat core's descent for every summary block
in ROOT_BLOCKS, group in ROOT_GROUPS and first-batch cap in ROOT_BATCHES,
and the {0, ceil(h/2), h} core's ("mid"), on the same random starts.  The
pick is the candidate of least summed time whose summary adds at most
SUMMARY_BUDGET bits per element at sigma = 4096 and which is no slower
than "mid" on any shape's input.

The cores are the benchmark's arrays (N = 2^18 uniform colors, each
present) at sigma 4 (ChunkedTopK), 4096 (OptimalTopK and SparseTopK(f=3))
and 2^16 + 1 (OptimalTopK), and DocumentIndex's one core over the docs
workload's corpus ("docs-main", sigma 2001), all from
perfbench/workloads.py at --seed.

    python3 tools/scan_sweep.py --seed 17 --out sweep.json
    python3 tools/scan_sweep.py --levels --seed 17 --out levels.json

Each takes about a minute on one core and under 300 MB.
"""

from __future__ import annotations

import argparse
import contextlib
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
from topkolors.util import nbits  # noqa: E402

WIDTHS = [64, 256, 1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
          24576, 32768, 49152, 65536, 98304, 131072]
KS = [1, 3, 16, 127, 1024]
KERNEL_SIGMAS = [4, 64, 256, 1024, 2001, 4096, 16384, 65537]
PATHS = ("sort_us", "mask_us", "descent_us")
NEVER = 1 << 62
LEVEL_SIGMAS = [4, 256, 1024, 2048, 4096, 32768]
LEVEL_NS = [1 << 16, 1 << 18, 1 << 20]
LEVEL_KS = [1, 16, 1024]
# a cell this much slower than the stride rule's is over the guard
LEVEL_NOISE = 0.10
# the library's constants as the recorded sweeps fitted them
# (BENCH_root_summary.json); check_library asserts that the library holds
# them
FITTED = {"_MASK_POSITION": 5.0, "_MASK_COLOR": 2.25, "_STEP_WIDTH": 7000,
          "_UNIT_WIDTH": 45, "_STRIDE_HEIGHT": 10, "_SUMMARY_BLOCK": 512,
          "_SUMMARY_GROUP": 8, "_FLAT_BATCH": 64}
# the kernel fit's grid: count cost per position and per color
KERNEL_GRID = (np.arange(0.5, 12.01, 0.25), np.arange(0.25, 8.01, 0.25))
# the width fit's grid: positions per level step and per unit of work
WIDTH_GRID = (range(500, 20001, 500), range(5, 101, 5))
# the root sweep's candidates: summary block and group sizes, and the most
# leaves the flat root's first batch maps
ROOT_BLOCKS = [64, 128, 256, 512, 1024]
ROOT_GROUPS = [4, 8, 16, 32, 64]
ROOT_BATCHES = [16, 32, 64, 128, 256, 1024]
ROOT_SHAPES = [(1 << 18, 2048), (1 << 18, 4096), (1 << 16, 4096)]
# the skewed input's first half holds the lowest ranks; the scattered
# input's, as many ranks drawn at random, so that each present rank group
# holds about one of them
ROOT_INPUTS = ("uniform", "skewed", "scattered")
# the most bits per element the summary may add at sigma = 4096
SUMMARY_BUDGET = 1.0


def array(seed: int, sigma: int):
    return workloads._array(seed, sigma, None, 1).make_input()


def cores(seed: int):
    """(name, core) pairs: every core the sweep times."""
    arr = array(seed, 4096)
    yield "optimal-4k", tk.OptimalTopK(arr).core
    yield "sparse-f3-4k", sparse.SparseTopK(arr, f=3).core
    yield "sigma-65537", tk.OptimalTopK(array(seed, (1 << 16) + 1)).core
    yield "low-sigma", tk.ChunkedTopK(array(seed, 4)).core
    yield "docs-main", workloads.docs(seed).build().core


def time_cell(core, rng, w, k, starts, paths=PATHS):
    """Median microseconds of each path over `starts` random ranges."""
    n = core._arr.n
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
    if len(levels) == 2:
        # a flat root: its first batch, and a leaf per answer past it
        return min(sigma, k + sparse._FIRST_BATCH)
    return (min(sigma, k + (1 << (levels[-1] - levels[-2])))
            + min(1 << levels[1], k + sparse._FIRST_BATCH))


def width(levels, sigma, k, step, unit) -> int:
    return max(1 << levels[1], int(step * (len(levels) - 1)
                                   + unit * units(levels, sigma, k)))


def best(row) -> float:
    return min(row[p] for p in PATHS if p in row)


def lost_share(rows, cost) -> float:
    return sum(cost(r) - best(r) for r in rows) / sum(best(r) for r in rows)


def fit_kernels(kernels: dict) -> dict:
    """(_MASK_POSITION, _MASK_COLOR) of least summed time lost between the
    two scans over every kernel cell, on KERNEL_GRID; "edge" names each
    fitted constant that lies on its grid's edge.  The library's pair is
    priced on the same cells."""
    rows = [(sigma, r) for sigma, rs in kernels.items() for r in rs]

    def cost(p, c):
        return sum(r["mask_us" if mask_cheaper(r["width"], sigma, p, c)
                       else "sort_us"] - best(r) for sigma, r in rows)

    p, c = min(itertools.product(*KERNEL_GRID), key=lambda pc: cost(*pc))
    total = sum(best(r) for _, r in rows)
    edge = [name for name, v, axis in zip(("_MASK_POSITION", "_MASK_COLOR"),
                                          (p, c), KERNEL_GRID)
            if v in (axis[0], axis[-1])]
    library = cost(sparse._MASK_POSITION, sparse._MASK_COLOR)
    return {"_MASK_POSITION": round(float(p), 2), "_MASK_COLOR": round(float(c), 2),
            "lost_share": round(cost(p, c) / total, 4), "edge": edge,
            "library_lost_share": round(library / total, 4)}


def rule_cost(core, row, step, unit, per_position, per_color):
    w, sigma, lv = row["width"], core._arr.sigma, core.levels
    if w - 1 < width(lv, sigma, row["k"], step, unit):
        cheaper = mask_cheaper(w, sigma, per_position, per_color)
        return row["mask_us" if cheaper else "sort_us"]
    return row["descent_us"]


def fit_width(swept: dict, kernel_fit: dict) -> dict:
    """(_STEP_WIDTH, _UNIT_WIDTH) of least summed lost share over the
    cores on WIDTH_GRID, under the fitted kernel rule; "edge" names each
    fitted constant that lies on its grid's edge.  The library's pair is
    priced under the same kernel rule."""
    pm = (kernel_fit["_MASK_POSITION"], kernel_fit["_MASK_COLOR"])

    def shares(step, unit):
        return {name: lost_share(rows, lambda r: rule_cost(core, r, step, unit, *pm))
                for name, (core, rows) in swept.items()}

    step, unit = min(itertools.product(*WIDTH_GRID),
                     key=lambda g: sum(shares(*g).values()))
    edge = [name for name, v, axis in zip(("_STEP_WIDTH", "_UNIT_WIDTH"),
                                          (step, unit), WIDTH_GRID)
            if v in (axis[0], axis[-1])]
    library = shares(sparse._STEP_WIDTH, sparse._UNIT_WIDTH)
    return {"_STEP_WIDTH": step, "_UNIT_WIDTH": unit, "edge": edge,
            "lost_share": {k: round(v, 3) for k, v in shares(step, unit).items()},
            "library_lost_share": {k: round(v, 3) for k, v in library.items()}}


def check_library(core) -> None:
    """The library's rules are the ones this script fits, with the
    constants it fitted."""
    assert {name: getattr(sparse, name) for name in FITTED} == FITTED
    lv, sigma, n = core.levels, core._arr.sigma, core._arr.n
    for k in KS:
        assert core.scan_width(k) == width(
            lv, sigma, k, sparse._STEP_WIDTH, sparse._UNIT_WIDTH), k
    pm = (sparse._MASK_POSITION, sparse._MASK_COLOR)
    m = core._mask_from
    assert m == n or mask_cheaper(m + 1, sigma, *pm), m
    assert m == 0 or not mask_cheaper(m, sigma, *pm), m
    # the summary: a flat core past the stride rule's height, one uint64
    # row per 64 rank groups, one column per block
    summary = core._summary
    if len(lv) == 2 and lv[-1] > sparse._STRIDE_HEIGHT:
        groups = -(-sigma // sparse._SUMMARY_GROUP)
        assert summary.shape == (-(-groups // 64),
                                 -(-n // sparse._SUMMARY_BLOCK))
        assert summary.dtype == np.uint64
    else:
        assert summary is None


def library_cost(core, row) -> float:
    w = row["width"]
    if w - 1 < core.scan_width(row["k"]):
        return row["mask_us" if w - 1 >= core._mask_from else "sort_us"]
    return row["descent_us"]


def losses(core, rows) -> dict:
    """The library's rule: microseconds spent above the cheapest path,
    summed over the rows, against the cheapest paths' sum, and the rows it
    got wrong."""
    best_us = sum(best(r) for r in rows)
    lost = [library_cost(core, r) - best(r) for r in rows]
    return {"best_us": round(best_us, 1),
            "current": {"lost_us": round(sum(lost), 1),
                        "lost_share": round(sum(lost) / best_us, 3),
                        "cells_wrong": sum(x > 0 for x in lost)}}


def sweep(seed: int, starts: int):
    rng = np.random.default_rng(seed)
    kernels = {}
    for sigma in KERNEL_SIGMAS:
        core = tk.OptimalTopK(array(seed, sigma)).core
        kernels[sigma] = [
            {"width": w, **time_cell(core, rng, w, 16, starts,
                                     ("sort_us", "mask_us"))}
            for w in WIDTHS]
    swept = {}
    for name, core in cores(seed):
        check_library(core)
        rows = []
        for w in WIDTHS:
            for i, k in enumerate(KS):
                # no K past the first that reaches sigma
                if i and KS[i - 1] >= core._arr.sigma:
                    continue
                rows.append({"width": w, "k": k,
                             **time_cell(core, rng, w, k, starts)})
        swept[name] = (core, rows)
    return kernels, swept


def skewed_array(rng, n: int, sigma: int, scattered: bool = False):
    """n colors over sigma, each present in the second half; the first
    half holds only max(1, sigma // 64) colors: the lowest-ranked ones, or,
    scattered, ones of ranks drawn at random."""
    prio = rng.permutation(sigma).astype(np.int64)
    half = n // 2
    colors = rng.integers(0, sigma, size=n)
    few = max(1, sigma // 64)
    if scattered:
        low = rng.choice(sigma, size=few, replace=False)
    else:
        low = np.flatnonzero(prio < few)
    colors[:half] = low[rng.integers(0, len(low), size=half)]
    present = half + rng.choice(n - half, size=sigma, replace=False)
    colors[present] = np.arange(sigma)
    return tk.ColorArray(colors.astype(np.int32), prio)


def uniform_array(rng, n: int, sigma: int):
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    return tk.ColorArray(colors.astype(np.int32),
                         rng.permutation(sigma).astype(np.int64))


def level_sets(n: int, sigma: int) -> dict:
    """name -> level set: the candidates the level sweep compares."""
    h = sparse.ceil_log2(sigma)
    sets = {"stride": sparse.stride_levels(n, sigma, 2), "flat": [0, h]}
    for m in range(max(1, -(-h // 3)), min(h, -(-2 * h // 3) + 1)):
        sets[f"mid{m}"] = [0, m, h]
    named = {}
    for name, lv in sets.items():
        # one entry per distinct set, under its first name
        if lv not in named.values():
            named[name] = lv
    return named


def level_widths(n: int) -> list:
    return sorted({1024, 4096, 16384, n // 8, n // 4, n // 2})


def time_levels(arr, cores: dict, rng, w, ks, starts, span):
    """Median microseconds of each core's descent at every K in ks, and of
    the library's scan for every distinct rank, over `starts` random
    ranges inside [1, span].  Every answer is checked against the scan's."""
    perf = time.perf_counter
    scan_core = next(iter(cores.values()))
    times = {"scan": []}
    times.update({(name, k): [] for name in cores for k in ks})
    for _ in range(starts):
        a = int(rng.integers(1, span - w + 2))
        b = a + w - 1
        t0 = perf()
        want = scan_core._scan(a, b, arr.sigma)
        times["scan"].append(perf() - t0)
        for k in ks:
            for name, core in cores.items():
                t0 = perf()
                got = core._descend(a, b, k)
                times[name, k].append(perf() - t0)
                if not np.array_equal(got, want[:k]):
                    raise AssertionError(f"{name} disagrees at {(a, b, k)}")
    return {key: round(statistics.median(t) * 1e6, 1)
            for key, t in times.items()}


def level_cells(arr, cores, rng, starts, skewed: bool) -> list:
    """One row per (width, K): the scan's and every level set's descent
    microseconds."""
    n = arr.n
    span = n // 2 if skewed else n
    rows = []
    for w in level_widths(n):
        if w > span:
            continue
        t = time_levels(arr, cores, rng, w, LEVEL_KS, starts, span)
        for k in LEVEL_KS:
            rows.append({"width": w, "k": k, "scan_us": t["scan"],
                         **{name: t[name, k] for name in cores}})
    return rows


def level_report(sets: dict, bits: dict, rows: dict, fitted: list) -> dict:
    """Per level set: bits, and on each input its summed cost (the cheaper
    of its descent and the scan per cell) and its worst cell against the
    stride rule's; then the pick and how fitted_levels fares against it."""
    def cost(r, name):
        return min(r[name], r["scan_us"])

    out = {}
    for name in sets:
        out[name] = {"levels": sets[name], "bits": bits[name]}
        for key in ("uniform", "skewed"):
            us = sum(cost(r, name) for r in rows[key])
            out[name][f"{key}_us"] = round(us, 1)
            worst = max(cost(r, name) / cost(r, "stride") for r in rows[key])
            out[name][f"{key}_worst_ratio"] = round(worst, 3)
    ok = [name for name, o in out.items()
          if o["bits"] <= 1.01 * out["stride"]["bits"]
          and o["uniform_worst_ratio"] <= 1 + LEVEL_NOISE
          and o["skewed_worst_ratio"] <= 1 + LEVEL_NOISE]
    pick = min(ok, key=lambda name: out[name]["uniform_us"]
               + out[name]["skewed_us"])
    fitted = next(name for name in sets if sets[name] == fitted)
    total = {name: out[name]["uniform_us"] + out[name]["skewed_us"]
             for name in (pick, fitted, "stride")}
    return {"sets": out, "pick": pick, "fitted": fitted,
            "fitted_over_pick": round(total[fitted] / total[pick], 3),
            "fitted_over_stride": round(total[fitted] / total["stride"], 3)}


def level_sweep(seed: int, starts: int, sigmas=LEVEL_SIGMAS,
                ns=LEVEL_NS) -> dict:
    """The level-set sweep over every (N, sigma) shape: rows and report."""
    rng = np.random.default_rng(seed)
    result = {}
    for n in ns:
        for sigma in sigmas:
            sets = level_sets(n, sigma)
            fitted = sparse.fitted_levels(n, sigma)
            if fitted not in sets.values():
                sets["fitted"] = fitted
            rows = {}
            for skewed in (False, True):
                make = skewed_array if skewed else uniform_array
                arr = make(rng, n, sigma)
                cores = {name: sparse._SparseCore(arr, lv)
                         for name, lv in sets.items()}
                if not skewed:
                    bits = {name: round(core.measured_bits() / n, 2)
                            for name, core in cores.items()}
                key = "skewed" if skewed else "uniform"
                rows[key] = level_cells(arr, cores, rng, starts, skewed)
                del cores, arr
            report = level_report(sets, bits, rows, fitted)
            result[f"n{n.bit_length() - 1}-s{sigma}"] = {
                "n": n, "sigma": sigma, **report,
                "columns": list(rows["uniform"][0]),
                "uniform": [list(r.values()) for r in rows["uniform"]],
                "skewed": [list(r.values()) for r in rows["skewed"]],
            }
    return result


def root_widths(n: int) -> list:
    return [n // 16, n // 4, n // 2]


@contextlib.contextmanager
def constants(**values):
    """sparse's module constants set to `values`, restored on exit."""
    saved = {name: getattr(sparse, name) for name in values}
    vars(sparse).update(values)
    try:
        yield
    finally:
        vars(sparse).update(saved)


def root_cells(arr, rng, starts, skewed: bool, blocks, groups, batches):
    """Per (width, K): the middle-level set's descent microseconds ("mid"),
    and the flat core's for every (block, group, first batch cap), over
    the same `starts` random ranges (inside the skewed half on a skewed
    input), each warm.  Every answer is checked against the scan's."""
    n, sigma = arr.n, arr.sigma
    h = sparse.ceil_log2(sigma)
    span = n // 2 if skewed else n
    mid = sparse._SparseCore(arr, [0, -(-h // 2), h])
    flats = {}
    for bl, g in itertools.product(blocks, groups):
        with constants(_SUMMARY_BLOCK=bl, _SUMMARY_GROUP=g):
            flats[bl, g] = sparse._SparseCore(arr, [0, h])
    perf = time.perf_counter
    rows = []
    for w in root_widths(n):
        if w > span:
            continue
        for k in LEVEL_KS:
            times = {"mid": []}
            for _ in range(starts):
                a = int(rng.integers(1, span - w + 2))
                b = a + w - 1
                want = mid._scan(a, b, k)
                # every core is timed on its second call at a start, so
                # that none pays for the keys the others evicted
                mid._descend(a, b, k)
                t0 = perf()
                got = mid._descend(a, b, k)
                times["mid"].append(perf() - t0)
                if not np.array_equal(got, want):
                    raise AssertionError(f"mid disagrees at {(a, b, k)}")
                for (bl, g), core in flats.items():
                    with constants(_SUMMARY_BLOCK=bl, _SUMMARY_GROUP=g):
                        core._descend(a, b, k)
                    for cap in batches:
                        with constants(_SUMMARY_BLOCK=bl, _SUMMARY_GROUP=g,
                                       _FLAT_BATCH=cap):
                            t0 = perf()
                            got = core._descend(a, b, k)
                            dt = perf() - t0
                        times.setdefault(f"b{bl}-g{g}-c{cap}", []).append(dt)
                        if not np.array_equal(got, want):
                            raise AssertionError(
                                f"flat disagrees at {(bl, g, cap, a, b, k)}")
            rows.append({"width": w, "k": k, **{
                name: round(statistics.median(t) * 1e6, 1)
                for name, t in times.items()}})
    bits = {f"b{bl}-g{g}": round(nbits(core._summary) / n, 3)
            for (bl, g), core in flats.items()}
    return rows, bits


def root_report(shapes: dict) -> dict:
    """Per candidate: its summed microseconds over every shape and input,
    and the worst ratio of its summed time on one shape's input to the
    middle-level set's.  The pick is the candidate of least summed time
    whose summary adds at most SUMMARY_BUDGET bits per element at
    sigma = 4096 and which is no slower than the middle-level set on any
    shape's input; "library" is the candidate of the library's constants."""
    names = [c for c in shapes[next(iter(shapes))]["uniform"][0]
             if c not in ("width", "k", "mid")]
    out = {}
    for name in names:
        total, worst = 0.0, 0.0
        for shape in shapes.values():
            for key in ROOT_INPUTS:
                us = sum(r[name] for r in shape[key])
                total += us
                worst = max(worst, us / sum(r["mid"] for r in shape[key]))
        bl, g, _ = name.split("-")
        out[name] = {"us": round(total, 1), "worst_over_mid": round(worst, 3),
                     "bits_at_4096": round(4096 / (int(bl[1:]) * int(g[1:])), 3)}
    ok = [name for name, o in out.items()
          if o["bits_at_4096"] <= SUMMARY_BUDGET and o["worst_over_mid"] <= 1]
    library = "b{_SUMMARY_BLOCK}-g{_SUMMARY_GROUP}-c{_FLAT_BATCH}".format(
        **vars(sparse))
    return {"pick": min(ok, key=lambda name: out[name]["us"]),
            "library": library, "candidates": out}


def root_sweep(seed: int, starts: int, shapes=ROOT_SHAPES, blocks=ROOT_BLOCKS,
               groups=ROOT_GROUPS, batches=ROOT_BATCHES) -> dict:
    """The flat root's sweep over summary block and group sizes and the
    first batch's cap, on an array of each of ROOT_INPUTS per shape: rows
    and report."""
    rng = np.random.default_rng(seed)
    result = {}
    for n, sigma in shapes:
        shape = {"n": n, "sigma": sigma}
        for key in ROOT_INPUTS:
            if key == "uniform":
                arr = uniform_array(rng, n, sigma)
            else:
                arr = skewed_array(rng, n, sigma, key == "scattered")
            rows, bits = root_cells(arr, rng, starts, key != "uniform",
                                    blocks, groups, batches)
            shape[key] = rows
            shape.setdefault("summary_bits", bits)
            del arr
        result[f"n{n.bit_length() - 1}-s{sigma}"] = shape
    report = root_report(result)
    for shape in result.values():
        for key in ROOT_INPUTS:
            rows = shape[key]
            shape["columns"] = list(rows[0])
            shape[key] = [list(r.values()) for r in rows]
    return {**report, "shapes": result}


def write(path, result) -> None:
    """result as indented JSON at path, if any, each row on one line."""
    if path is None:
        return
    # one line per row: a list of scalars stays on one line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(result, indent=1))
    path.write_text(text + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--starts", type=int, default=40,
                    help="random ranges timed per cell")
    ap.add_argument("--out", type=Path, help="write the JSON here")
    ap.add_argument("--levels", action="store_true",
                    help="run the level-set sweep instead")
    args = ap.parse_args(argv)
    host = {"cores": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}
    if args.levels:
        root = root_sweep(args.seed, args.starts)
        shapes = level_sweep(args.seed, args.starts)
        write(args.out, {"host": host, "seed": args.seed,
                         "starts": args.starts, "root": root, "shapes": shapes})
        print("root", root["pick"], root["library"],
              root["candidates"][root["library"]])
        for name, c in shapes.items():
            print(name, c["pick"], c["fitted"], c["fitted_over_pick"],
                  c["fitted_over_stride"],
                  {s: o["skewed_worst_ratio"] for s, o in c["sets"].items()})
        return 0
    kernels, swept = sweep(args.seed, args.starts)
    kernel_fit = fit_kernels(kernels)
    result = {
        "host": host,
        "seed": args.seed, "starts": args.starts,
        "library": {name: getattr(sparse, name) for name in FITTED},
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
            "loss": losses(core, rows),
            "columns": list(rows[0]),
            "rows": [list(r.values()) for r in rows],
        }
    write(args.out, result)
    print(json.dumps(result["fit"]))
    for name, c in result["cores"].items():
        print(name, json.dumps(c["loss"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
