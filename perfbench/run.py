#!/usr/bin/env python3
"""Benchmark of the topkolors indexes: set-up, query latency, size, memory.

One run builds a workload's inputs from --seed, writes a snapshot of its
index once, times several load_index calls on it, then times whole rounds
of a fixed, shuffled mix of four query classes for --seconds, one query at
a time (a closed loop with a single caller, one thread).  Every answer is
checked against the scans in check.py.  The last line of the output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload optimal-4k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a separate run with wrappers at the library's layer
boundaries (see tracing.py), and writes its spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def import_library():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    pkg = ROOT / "src" / "topkolors"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import topkolors

    if Path(topkolors.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported topkolors from {topkolors.__file__}")


def run_rounds(index, ops, seconds, tracer=None):
    """Whole rounds of ops until `seconds` have passed (at least one).

    Returns latencies per class of the answered ops, the summed wall time
    of the rounds, and the attempted / failed tallies.  Answers are checked
    between rounds, outside the timed region.
    """
    import check

    lat = {}
    wall = 0.0
    attempted = failed = rounds = 0
    perf = time.perf_counter
    deadline = perf() + seconds
    while rounds == 0 or perf() < deadline:
        answers = []
        start = perf()
        for i, op in enumerate(ops):
            t0 = perf()
            try:
                ans = tracer.op(op.cls, i, op.run, index) if tracer else op.run(index)
            except Exception as exc:  # a raising query is a failed operation
                ans = exc
            answers.append((ans, perf() - t0))
        wall += perf() - start
        rounds += 1
        for op, (ans, dt) in zip(ops, answers):
            attempted += 1
            why = repr(ans) if isinstance(ans, Exception) else check.verify(ans, op.expected)
            if why is None:
                lat.setdefault(op.cls, []).append(dt)
            else:
                failed += 1
                print(f"FAILED {op.cls} {op.args!r}: {why}", file=sys.stderr)
    return lat, wall, attempted, failed


def heap_bits(workload, seed) -> float:
    """Bits per element of heap still live after building the index from an
    input allocated before tracing started."""
    import tracemalloc

    import workloads

    prep = workloads.WORKLOADS[workload](seed)
    inp = prep.make_input()
    gc.collect()
    tracemalloc.start()
    index = prep.engine(inp)
    gc.collect()
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return 8 * live / index.n


def measured_heap_bits(workload, seed) -> float:
    """heap_bits() in a fresh interpreter, so nothing the parent allocated
    is counted and the parent's peak RSS is not raised by it.  The child is
    a plain subprocess that starts no helper process of its own, and it has
    ended (or been killed and reaped) when this returns."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "run.import_library(); print(repr(run.heap_bits(sys.argv[2], int(sys.argv[3]))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
         workload, str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: heap measurement exited with {proc.returncode}\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def setup(prep, workload, seed, loads, load):
    """Write the index's snapshot once, then time `loads` calls of
    load(path) on it.  Returns the last loaded index and the load times."""
    import topkolors as tk

    snap = OUT / f"{workload}-s{seed}.tksnap"
    index, times = None, []
    try:
        tk.save_index(str(snap), prep.build())
        for _ in range(loads):
            index = None
            gc.collect()
            t0 = time.perf_counter()
            _, index = load(str(snap))
            times.append(time.perf_counter() - t0)
    finally:
        snap.unlink(missing_ok=True)
    return index, times


def end_to_end(workload, seed, seconds):
    import topkolors as tk
    import workloads

    prep = workloads.WORKLOADS[workload](seed)
    ops = prep.make_ops()
    index, load_times = setup(prep, workload, seed, workloads.LOADS[workload], tk.load_index)
    bits = measured_heap_bits(workload, seed)
    run_rounds(index, ops, 0)  # warm-up: one round, not reported
    gc.collect()
    lat, wall, attempted, failed = run_rounds(index, ops, seconds)
    metrics = {
        "setup_s": (statistics.median(load_times), "s"),
        "queries_per_s": ((attempted - failed) / wall, "1/s"),
    }
    for cls in workloads.CLASSES:
        # a class with no answered operation has no median: null, not 0
        p50 = statistics.median(lat[cls]) * 1e6 if cls in lat else None
        metrics[f"{cls}_p50_us"] = (p50, "us")
    metrics["bits_per_element"] = (bits, "bits")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    tails = {
        cls: (len(lat[cls]), statistics.quantiles(lat[cls], n=100)[98] * 1e6)
        for cls in workloads.CLASSES if len(lat.get(cls, ())) > 1
    }
    return metrics, attempted, failed, tails


def per_layer(workload, seed, seconds):
    import topkolors as tk
    import tracing
    import workloads

    prep = workloads.WORKLOADS[workload](seed)
    ops = prep.make_ops()
    tracer = tracing.Tracer()

    def traced_load(path):
        tracer.install_spans()
        try:
            return tracer.op("snapshot.load", -1, tk.load_index, path)
        finally:
            tracer.uninstall()

    index, _ = setup(prep, workload, seed, 1, traced_load)
    build = tracer.totals()
    bits_self = index.measured_bits() / index.n

    # one round on the freshly loaded index gives the counts: every run with
    # this seed makes the same calls, the memo table of ChunkedTopK included
    tracer = tracing.Tracer()
    tracer.install_counters()
    try:
        _, _, attempted, failed = run_rounds(index, ops, 0)
    finally:
        tracer.uninstall()
    c = tracer.counts
    table = index._word_table if isinstance(index, tk.ChunkedTopK) else {}
    nops = len(ops)
    nstream = sum(op.cls == "stream" for op in ops)

    half = seconds / 2
    _, plain_wall, plain_ops, plain_failed = run_rounds(index, ops, half)
    tracer = tracing.Tracer()
    tracer.install_spans()
    try:
        _, traced_wall, traced_ops, traced_failed = run_rounds(index, ops, half, tracer)
    finally:
        tracer.uninstall()
    spent = tracer.totals()
    attempted += plain_ops + traced_ops
    failed += plain_failed + traced_failed

    def ratio(x, y):
        return x / y if y else 0.0

    metrics = {
        "sparse.topk_ranks_us": (spent["sparse.topk_ranks"] * 1e6 / traced_ops, "us"),
        "sparse.children_probed": (c["children_probed"] / nops, "count"),
        "sparse.map_child_calls": (c["map_child"] / nops, "count"),
        "primitives.count_calls": (c["count"] / nops, "count"),
        "primitives.report_calls": (c["report"] / nops, "count"),
        "primitives.segtree_nodes": (c["segtree_nodes"] / nops, "count"),
        "bits.rank1_calls": (c["rank1"] / nops, "count"),
        "model.list_from_ranks_us": (
            spent["model.list_from_ranks"] * 1e6 / traced_ops, "us"),
        "optimal.global_share": (ratio(c["global_calls"], c["optimal_topk"]), "ratio"),
        "wavelet.map_interval_calls": (c["map_interval"] / nops, "count"),
        "wavelet.levels_visited": (c["levels_visited"] / nops, "count"),
        "chunked.word_topk_calls": (c["word_topk"] / nops, "count"),
        "chunked.word_table_hit_ratio": (ratio(c["word_hits"], c["word_topk"]), "ratio"),
        "chunked.word_table_entries": (len(table), "count"),
        "chunked.split_share": (ratio(c["split"], c["chunked_queries"]), "ratio"),
        "online.elements_requested": (c["elements_requested"] / nstream, "count"),
        "online.topk_calls": (c["stream_topk"] / nstream, "count"),
        "docs.pattern_range_us": (spent["docs.pattern_range"] * 1e6 / traced_ops, "us"),
        "docs.tmine_yield": (ratio(c["tmine_results"], c["tmine_streamed"]), "ratio"),
        "build.suffix_array_s": (build["build.suffix_array"], "s"),
        "build.index_s": (build["build.index"], "s"),
        "build.self_s": (
            build["build.top"] - build["build.suffix_array"] - build["build.index"], "s"),
        "snapshot.decode_s": (build["snapshot.load"] - build["build.top"], "s"),
        "size.self_reported_bits_per_element": (bits_self, "bits"),
        "trace.overhead_ratio": (
            (traced_wall / traced_ops) / (plain_wall / plain_ops), "ratio"),
    }
    summary = {k: v for k, (v, _) in metrics.items()}
    summary["self_s"] = dict(tracer.self_times())
    tracer.dump(OUT / f"trace-{workload}.json", summary)
    return metrics, attempted, failed


def report(metrics, attempted, failed, tails=None):
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {'null' if value is None else f'{value:14.4f}':>14s} {unit}")
    for cls, (count, p99) in (tails or {}).items():
        print(f"{cls + '_p99_us':40s} {p99:14.1f} us  (n={count})")
    print(f"{'attempted':40s} {attempted:14d}\n{'failed':40s} {failed:14d}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own process, so peak_rss_mib is per workload."""
    results = {}
    import workloads

    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_library()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload: choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        run_all(args)
        return
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import tracing

        try:
            result = per_layer(args.workload, args.seed, args.seconds)
        except tracing.MissingTarget as exc:
            sys.exit(f"perfbench: traced run: {exc}")
        report(*result)
    else:
        report(*end_to_end(args.workload, args.seed, args.seconds))


if __name__ == "__main__":
    main()
