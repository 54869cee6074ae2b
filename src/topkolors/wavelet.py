"""Baseline top-K index: a balanced tree over the priority range.

Colors are replaced by their priority ranks and the rank range [0, 2^height)
is halved recursively; each level above the leaves stores its node offsets
and one bit per element marking membership in the upper half, with rank
support for interval mapping.  A node at depth d covers a contiguous rank
interval and its elements appear in original order inside the level-d array.
A leaf is a single rank, so the leaf level stores nothing.

The rank range is padded to a power of two; padding ranks never occur in the
array, so their subtrees receive empty intervals and are never reported.

Shared level structures: all nodes of one level are concatenated into a
single array, and one reporter plus one counter (sharing one predecessor
array, scanned per query) serves every node of that level.  A node is a
function of the rank, so a rank's previous occurrence lies in its own node.
Only the levels strictly between root and leaves have them: the walk
counts and reports children, never the root.

Query walk for top K: at each node, map the interval into the right (higher
priority) child and count its distinct colors m.  If m exceeds K, the answer
lies wholly in the right child; if it equals K, report the right child's
distinct set and stop; otherwise report the right child fully and continue in
the left child with K - m.  Cost is one count per level plus reporting, and
the collected ranks are sorted before returning.
"""

from __future__ import annotations

import numpy as np

from .bits import RankSelectBits
from .errors import OutOfBounds
from .model import ColorArray, ColorList, check_range
from .primitives import ColorCounter, ColorReporter, make_pred
from .util import ceil_log2, nbits

EMPTY = (1, 0)


class WaveletTopK:
    def __init__(self, arr: ColorArray):
        self.arr = arr
        self.n = arr.n
        self.height = ceil_log2(arr.sigma)
        # int32, whatever the array stores: the level arrays keep their dtype
        ranks = arr.ranks.astype(np.int32)
        self._bits: list[RankSelectBits] = []
        self._offsets: list[np.ndarray] = []
        self._reporters: dict[int, ColorReporter] = {}
        self._counters: dict[int, ColorCounter] = {}
        # a leaf is one rank, counted and reported without a level array
        for d in range(self.height):
            shift = self.height - d
            key = ranks >> shift
            # numpy radix-sorts 16-bit values, several times faster
            if self.height <= 16:
                key = key.astype(np.uint16)
            vals = ranks[np.argsort(key, kind="stable")]
            nodes = vals >> shift
            counts = np.bincount(nodes, minlength=1 << d)
            off = np.zeros((1 << d) + 1, dtype=np.int64)
            np.cumsum(counts, out=off[1:])
            self._offsets.append(off)
            self._bits.append(RankSelectBits((vals >> (shift - 1)) & 1))
            if d > 0:
                pred = make_pred(vals)
                self._reporters[d] = ColorReporter(vals, pred=pred)
                self._counters[d] = ColorCounter(vals, pred=pred)
        self.last_visited = 0

    def map_interval(self, level: int, node: int, a: int, b: int, side: str):
        """Map a node-local interval one level down; (1, 0) when empty."""
        if a > b:
            return EMPTY
        off = self._offsets[level]
        n_v = int(off[node + 1] - off[node])
        if not 1 <= a <= b <= n_v:
            raise OutOfBounds(f"interval ({a}, {b}) not within [1, {n_v}]")
        base = int(off[node])
        bv = self._bits[level]
        ones_base = bv.rank1(base)
        ones_lo = bv.rank1(base + a - 1) - ones_base
        ones_hi = bv.rank1(base + b) - ones_base
        if side == "right":
            lo, hi = ones_lo + 1, ones_hi
        elif side == "left":
            lo, hi = (a - 1 - ones_lo) + 1, b - ones_hi
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return (lo, hi) if lo <= hi else EMPTY

    def _count(self, level: int, node: int, a: int, b: int) -> int:
        if a > b:
            return 0
        if level == self.height:
            return 1
        base = int(self._offsets[level][node])
        return self._counters[level].count_range(base + a - 1, base + b)

    def _report(self, level: int, node: int, a: int, b: int) -> list[int]:
        if level == self.height:
            return [node]
        rep = self._reporters[level]
        base = int(self._offsets[level][node])
        return rep.values[rep.positions(base + a - 1, base + b)].tolist()

    def topk(self, a: int, b: int, k: int) -> ColorList:
        a, b, k = check_range(self.n, a, b, k)
        out: list[int] = []
        d, node, av, bv, rem = 0, 0, a, b, k
        visited = 0
        while True:
            visited += 1
            if d == self.height:
                if av <= bv:
                    out.append(node)
                break
            ra, rb = self.map_interval(d, node, av, bv, "right")
            m = self._count(d + 1, 2 * node + 1, ra, rb)
            if m >= rem:
                if m == rem:
                    visited += 1
                    out.extend(self._report(d + 1, 2 * node + 1, ra, rb))
                    break
                d, node, av, bv = d + 1, 2 * node + 1, ra, rb
                continue
            if m > 0:
                visited += 1
                out.extend(self._report(d + 1, 2 * node + 1, ra, rb))
                rem -= m
            la, lb = self.map_interval(d, node, av, bv, "left")
            if la > lb:
                break
            d, node, av, bv = d + 1, 2 * node, la, lb
        self.last_visited = visited
        out.sort(reverse=True)
        return self.arr.list_from_ranks(out)

    def measured_bits(self) -> int:
        total = nbits(*self._offsets)
        total += sum(bv.measured_bits() for bv in self._bits)
        # each level's counter shares its reporter's pred array
        total += sum(r.measured_bits() for r in self._reporters.values())
        return total
