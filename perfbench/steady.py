#!/usr/bin/env python3
"""Steadiness check: run one workload with seeds 1..N and print, for every
metric, the median, the quartiles and the quartile spread as a share of the
median (the figure the bounds in BENCHMARK.json are set against).

    python3 perfbench/steady.py --workload docs --runs 10 --seconds 15

Runs go one after another, each in its own process.  Raw results are
appended to perfbench/out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"steady-{args.workload}.jsonl"
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f}")


if __name__ == "__main__":
    main()
