"""Baseline top-K index: a wavelet matrix over the priority ranks.

Colors are replaced by their priority ranks, h = ceil(log2 sigma) bits each,
and the bits are read most significant first: level d's bit of a rank is
bit h - 1 - d.  Level 0 holds the ranks in array order, and level d + 1 is
the stable partition of level d by level d's bit: the elements whose bit is
0, then those whose bit is 1, each group in its level-d order (Claude,
Navarro and Ordonez, "The wavelet matrix", Information Systems 2015).  Each
level above the leaves keeps its bits as a bitvector with rank support and
Z_d, its number of zeros.

A node of the wavelet tree, the ranks that share their top d bits, is then
one contiguous interval of level d, its elements in array order.  Intervals
are 0-based half-open, and [lo, hi) maps to both children with two rank
reads: the left child (lower ranks) is [lo - rank1(lo), hi - rank1(hi)) and
the right child is [Z_d + rank1(lo), Z_d + rank1(hi)).  No node offsets are
stored.  The walk tracks the node id alongside the interval, and a leaf is
a single rank, its node id, so the leaf level stores nothing.

The rank range is padded to a power of two; padding ranks never occur in the
array, so their subtrees receive empty intervals and are never reported.

Shared level structures: one reporter plus one counter, sharing one
predecessor array over the whole level, serves every node of that level.  A
node is a function of the rank, so a rank's previous occurrence lies in its
own node.  Only the levels strictly between root and leaves have them: the
walk counts and reports children, never the root.

Query walk for top K (Gagie, Navarro and Puglisi, TCS 2012): at each node,
map the interval to both children and count the right (higher priority)
child's distinct ranks m, capped at rem, the number still missing: the count
reads a prefix first and stops there once it holds more than rem, since the
walk needs m exactly only when m <= rem.  If m exceeds rem, the answer lies
wholly in the right child; otherwise report the right child's distinct set,
and stop when that makes K, or continue in the left child with rem - m.
Cost is one interval map (two rank reads) and at most one count per level
plus reporting.  The reported ranks are collected as arrays and sorted once.
"""

from __future__ import annotations

import numpy as np

from .bits import RankSelectBits
from .model import ColorArray, ColorList, check_range
from .primitives import ColorCounter, ColorReporter, make_pred
from .util import ceil_log2


class WaveletTopK:
    def __init__(self, arr: ColorArray):
        self.arr = arr
        self.n = arr.n
        self.height = ceil_log2(arr.sigma)
        # int32, whatever the array stores: the level arrays keep their dtype
        vals = arr.ranks.astype(np.int32)
        self._bits: list[RankSelectBits] = []
        self._zeros: list[int] = []
        self._reporters: dict[int, ColorReporter] = {}
        self._counters: dict[int, ColorCounter] = {}
        # a leaf is one rank, counted and reported without a level array
        for d in range(self.height):
            if d > 0:
                pred = make_pred(vals)
                self._reporters[d] = ColorReporter(vals, pred=pred)
                self._counters[d] = ColorCounter(vals, pred=pred)
            ones = ((vals >> (self.height - 1 - d)) & 1).astype(bool)
            self._bits.append(RankSelectBits(ones))
            zeros = vals[~ones]
            self._zeros.append(len(zeros))
            if d + 1 < self.height:
                vals = np.concatenate((zeros, vals[ones]))
        self.last_visited = 0

    def map_interval(self, level: int, lo: int, hi: int):
        """Map [lo, hi) of `level` to its children on level + 1, as
        ((left_lo, left_hi), (right_lo, right_hi)), all half-open."""
        bv = self._bits[level]
        ones_lo, ones_hi = bv.rank1(lo), bv.rank1(hi)
        z = self._zeros[level]
        return (lo - ones_lo, hi - ones_hi), (z + ones_lo, z + ones_hi)

    def _count(self, level: int, lo: int, hi: int, cap=None) -> int:
        """Distinct ranks in a node's non-empty interval [lo, hi) of `level`,
        exact when at most cap (see ColorCounter.count_range)."""
        if level == self.height:
            return 1
        return self._counters[level].count_range(lo, hi, cap)

    def _report(self, level: int, node: int, lo: int, hi: int) -> np.ndarray:
        if level == self.height:
            return np.array([node], dtype=np.int32)
        rep = self._reporters[level]
        return rep.values[rep.positions(lo, hi)]

    def topk(self, a: int, b: int, k: int) -> ColorList:
        a, b, k = check_range(self.n, a, b, k)
        found: list[np.ndarray] = []
        d, node, lo, hi, rem = 0, 0, a - 1, b, k
        visited = 0
        while True:
            visited += 1
            if d == self.height:
                found.append(self._report(d, node, lo, hi))
                break
            (llo, lhi), (rlo, rhi) = self.map_interval(d, lo, hi)
            d += 1
            if rlo < rhi:
                m = self._count(d, rlo, rhi, rem)
                if m > rem:
                    node, lo, hi = 2 * node + 1, rlo, rhi
                    continue
                visited += 1
                found.append(self._report(d, 2 * node + 1, rlo, rhi))
                rem -= m
                if rem == 0:
                    break
            if llo == lhi:
                break
            node, lo, hi = 2 * node, llo, lhi
        self.last_visited = visited
        ranks = np.concatenate(found)
        ranks.sort()
        return self.arr.list_from_ranks(ranks[::-1])

    def measured_bits(self) -> int:
        total = sum(bv.measured_bits() for bv in self._bits)
        # each level's counter shares its reporter's pred array
        total += sum(r.measured_bits() for r in self._reporters.values())
        # Z_d, one 64-bit count per level
        total += 64 * len(self._zeros)
        return total
