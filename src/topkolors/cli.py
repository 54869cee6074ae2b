"""Command line front end: build, query, verify, and stats on snapshots.

Exit codes: 0 success, 1 verification mismatch, 2 unparsable input,
3 bad parameter or invalid query, 4 file system trouble, 5 corrupt
snapshot, 6 operation not applicable to the snapshot's kind, 7 internal
error (any other exception: a bug in this package, reported as one
"error: internal:" line rather than a traceback).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .docs import DocumentIndex, naive_ranked_list, naive_t_mine
from .errors import (
    BadParameter,
    KindMismatch,
    ParseError,
    SnapshotCorrupt,
    TopKError,
)
from .model import oracle_topk
from .snapshot import (
    KINDS,
    load_index,
    parse_array_text,
    parse_corpus_text,
    save_index,
)
from .sparse import SparseTopK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="topkolors",
        description="Range top-K color reporting and document retrieval.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index snapshot from text input")
    b.add_argument("--kind", required=True, choices=sorted(KINDS))
    b.add_argument("--input", required=True, help="text input file")
    b.add_argument("--output", required=True, help="snapshot file to write")
    b.add_argument("--f", type=int, default=2,
                   help="level sparsification for --kind sparse (default 2)")

    q = sub.add_parser("query", help="run one query against a snapshot")
    q.add_argument("--snapshot", required=True)
    mode = q.add_mutually_exclusive_group(required=True)
    mode.add_argument("--range", nargs=3, type=int, metavar=("A", "B", "K"))
    mode.add_argument("--pattern", help="pattern for a document snapshot")
    q.add_argument("--k", type=int, default=1,
                   help="answer size for --pattern (default 1)")
    q.add_argument("--t", type=int,
                   help="with --pattern: occurrence threshold")

    v = sub.add_parser("verify", help="replay random queries against a scan")
    v.add_argument("--snapshot", required=True)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("stats", help="print size and shape counters")
    s.add_argument("--snapshot", required=True)
    return top


def _cmd_build(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    cls = KINDS[args.kind]
    if cls is DocumentIndex:
        index = cls(*parse_corpus_text(text))
    elif cls is SparseTopK:
        index = cls(parse_array_text(text), f=args.f)
    else:
        index = cls(parse_array_text(text))
    save_index(args.output, index)
    print(f"built {args.kind} snapshot: {args.output}")
    return 0


def _cmd_query(args) -> int:
    kind, index = load_index(args.snapshot)
    if args.range is not None:
        if kind == "docs":
            raise KindMismatch(
                "range queries need an array snapshot, got a document one"
            )
        a, b, k = args.range
        result = index.topk(a, b, k)
    else:
        if kind != "docs":
            raise KindMismatch(
                f"pattern queries need a document snapshot, got {kind}"
            )
        if args.t is not None:
            result = index.t_mine(args.pattern, args.t, args.k)
        else:
            result = index.ranked_list(args.pattern, args.k)
    for c, p in result:
        print(f"({c},{p})")
    return 0


def _verify_array(index, trials: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    arr = index.arr
    for trial in range(trials):
        a = int(rng.integers(1, arr.n + 1))
        b = int(rng.integers(a, arr.n + 1))
        k = int(rng.integers(1, arr.n + 2))
        got = index.topk(a, b, k)
        want = oracle_topk(arr, a, b, k)
        if got != want:
            print(
                f"mismatch at trial {trial}: a={a} b={b} k={k} "
                f"got={list(got)} want={list(want)}"
            )
            return 1
    print(f"verify: ok trials={trials}")
    return 0


def _verify_docs(index: DocumentIndex, trials: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    coll = index.collection
    weights = index.weights
    for trial in range(trials):
        j = int(rng.integers(0, coll.num_docs))
        doc = coll.docs[j]
        start = int(rng.integers(0, len(doc)))
        length = int(rng.integers(1, min(4, len(doc) - start) + 1))
        pattern = doc[start : start + length]
        k = int(rng.integers(1, coll.num_docs + 1))
        got = index.ranked_list(pattern, k)
        want = naive_ranked_list(coll, weights, pattern, k)
        if got != want:
            print(
                f"mismatch at trial {trial}: pattern={pattern!r} k={k} "
                f"got={list(got)} want={want}"
            )
            return 1
        if index.t_values:
            t = int(index.t_values[int(rng.integers(0, len(index.t_values)))])
            got_t = index.t_mine(pattern, t, k)
            want_t = naive_t_mine(coll, weights, pattern, t, k)
            if got_t != want_t:
                print(
                    f"mismatch at trial {trial}: pattern={pattern!r} t={t} "
                    f"k={k} got={list(got_t)} want={want_t}"
                )
                return 1
    print(f"verify: ok trials={trials}")
    return 0


def _cmd_verify(args) -> int:
    for name in ("trials", "seed"):
        value = getattr(args, name)
        if value < 0:
            raise BadParameter(f"--{name} must be >= 0, got {value}")
    kind, index = load_index(args.snapshot)
    if kind == "docs":
        return _verify_docs(index, args.trials, args.seed)
    return _verify_array(index, args.trials, args.seed)


def _cmd_stats(args) -> int:
    kind, index = load_index(args.snapshot)
    bits = index.measured_bits()
    lines = {"kind": kind}
    if kind == "docs":
        lines["num_docs"] = index.collection.num_docs
        lines["text_bytes"] = index.collection.n
        lines["n"] = index.arr.n
        lines["sigma"] = index.arr.sigma
        lines["t_values"] = ",".join(str(t) for t in index.t_values)
    else:
        lines["n"] = index.arr.n
        lines["sigma"] = index.arr.sigma
    lines["measured_bits"] = bits
    denom = index.arr.n
    lines["bits_per_element"] = f"{bits / denom:.2f}"
    if kind == "sparse":
        lines["f"] = index.f
        lines["levels"] = ",".join(str(v) for v in index.core.levels)
    for key, value in lines.items():
        print(f"#stat {key}={value}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "query": _cmd_query,
        "verify": _cmd_verify,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SnapshotCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except KindMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except TopKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
