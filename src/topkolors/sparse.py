"""Sparsified top-K index: one key array on a few tree levels only.

The balanced rank tree of the baseline is kept conceptually, but level
arrays exist only at "important" levels: multiples of
max(1, floor(log2 n) / f) clipped to the tree height, plus the leaf level.
Each level below the root stores its node offsets and one key per element
(array E), nothing else; level li + 1's arrays sit at index li of each
per-level tuple.

E lists the level's elements grouped by node, and holds for each the key
`node * M + p`: node is the element's global node id on that level, p its
1-based position inside its parent node, and M the largest parent-node size
plus one.  Keys are increasing over the whole level, so the interval (lo, hi]
of a parent node maps into its child c as the keys in
[c * M + lo + 1, c * M + hi + 1), and any batch of children, of one node or
of many, is mapped with one searchsorted over a vector of needles.  Keys
are int32 when 2^level * M < 2^31 and int64 otherwise; needles share the
keys' dtype, so numpy never casts the haystack.

A query no wider than scan_width(k) is answered from its own ranks: the
core reads one slice, ranks[a-1:b], of the per-position ranks the
ColorArray stores (uint16 up to sigma = 2^16), with no gather.  It takes
the cheaper of two kernels.  A narrow slice is sorted, and the k highest
distinct values kept, in O(w log w).  A wider one is counted in a
sigma-long array, whose entries of at least t are read from the top, in
O(w + sigma).  One cost rule on (w, sigma) picks the kernel: the sort
costs w * log2(min(w, sigma)) comparisons, the count _MASK_POSITION per
position and _MASK_COLOR per color.  The count takes over from about 1.7k
positions at sigma = 4096 and 16k at sigma = 2^16 + 1, and never at
sigma <= 64.  topk_ranks with a threshold t >= 2, which
DocumentIndex.t_mine asks for, keeps only the ranks occurring at least t
times in the range and always scans, whatever the width, since the
descent cannot count: under the same kernel switch, the sort kernel keeps
only runs of equal ranks at least t long, and the count keeps only
entries of at least t.

scan_width(k) is the descent's estimated cost in scanned positions: a
fixed cost per level step, plus a cost per unit of its work.  The units
are the leaf needles, min(sigma, k + 2^leaf fan), since a leaf batch stops
at the first node whose bound reaches k, and, when there is a middle
level, the root children its first batches map, min(2^levels[1], 2k + 16).
All four constants are fitted to a sweep of the three paths' times
(tools/scan_sweep.py, BENCH_mask_scan.json).  The width never falls below
the root's fan-out and grows with k: at sigma = 4096 and N = 2^18 (levels
{0, 9, 12}) it is about 23.8k positions at k = 1 and 69k at k = 1024, and
at sigma = 4 about 11.6k whatever k.  The core keeps a reference to the
array, not a copy of its ranks, so the rule stores nothing new.
WaveletTopK does not use it.  A range narrower than scan_width(1) is
scanned at every k, so scanned_ranks hands a ColorStream all of its
distinct ranks from one scan, and None for any wider range.

Any wider query walks a frontier down the important levels: at most k
non-empty nodes of one level, highest ranks first, each with its interval.
The root maps its children in batches from the highest down, each twice as
large as the one before, until k are non-empty.  A lower frontier maps its
nodes in batches too, each the shortest prefix of the nodes left whose
bound sum(min(size, 2^fan)) reaches the number of children still missing.
The non-empty children, kept in order and cut to k, are the next frontier:
every one of them holds at least one rank, and all its ranks exceed those
of the next.  A leaf child is one rank, and needs one needle: it is
non-empty iff the first key at or past c * M + lo + 1 lies below
c * M + hi + 1.  The leaf ids found are the answer, already sorted, for a
level set of any depth.  No level stores its ranks or a counting
structure; this is the greedy top-k descent of Gagie, Navarro and Puglisi
(TCS 2012) on a multiary wavelet tree (Ferragina, Manzini, Makinen and
Navarro, ACM TALG 2007).  last_visited counts the children mapped above
the leaf level, 0 when the scan ran.  Larger f means fewer levels (less
space) but wider frontiers.

_SparseCore is built over a ColorArray and answers in rank space (ranks
dense in [0, sigma)); SparseTopK turns its ranks back into (color, priority)
pairs.  OptimalTopK and ChunkedTopK are SparseTopK with f = 2 under the
`optimal` and `chunked` kind names, which snapshots record by class.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import BadParameter
from .model import ColorArray, ColorList, check_range
from .util import ceil_log2, floor_log2, nbits

# children mapped by the root's first batch, at least; later batches double
_FIRST_BATCH = 16
# The descent's cost in scanned positions: per level step, and per unit of
# its work (a leaf needle, or a root child mapped).  Fitted to the sweep of
# the scans' and the descent's times recorded in BENCH_mask_scan.json.
_STEP_WIDTH = 11500
_UNIT_WIDTH = 30
# the most scan_width grows per unit of k: one leaf needle, two root children
_K_WIDTH = 3 * _UNIT_WIDTH
# The scan's two kernels, costed in sort comparisons: the count's per
# position and per color of its sigma-long array.  Fitted to the sweep of
# both kernels recorded in BENCH_mask_scan.json.
_MASK_POSITION = 6.0
_MASK_COLOR = 2.0


def _mask_crossover(sigma: int, n: int) -> int:
    """The least b - a whose range the scan counts in a sigma-long array,
    n when no range of an n-long array is.  Sorting w ranks costs
    w * log2(min(w, sigma)) and counting them _MASK_POSITION * w +
    _MASK_COLOR * sigma; once the count is the cheaper, it stays so for
    every wider range, so a bisection finds the crossover."""
    lo, hi = 1, n + 1
    while lo < hi:
        w = (lo + hi) // 2
        if _MASK_POSITION * w + _MASK_COLOR * sigma < w * math.log2(min(w, sigma)):
            hi = w
        else:
            lo = w + 1
    return lo - 1


class _SparseCore:
    __slots__ = ("levels", "_arr", "_E", "_off", "_mult", "_w1",
                 "_mask_from", "last_visited")

    def __init__(self, arr: ColorArray, f: int):
        try:
            f = operator.index(f)
        except TypeError:
            raise BadParameter(
                f"level sparsification f must be an integer, got {f!r}"
            ) from None
        if f < 2:
            raise BadParameter(f"level sparsification needs f >= 2, got {f}")
        # the array, not a copy of its ranks: the scan reads them
        self._arr = arr
        ranks = arr.ranks
        n = len(ranks)
        height = ceil_log2(arr.sigma)
        stride = max(1, floor_log2(max(n, 1)) // f)
        # every multiple past the height clips to it, so stop there
        steps = min(f + 1, -(-height // stride))
        self.levels = sorted({i * stride for i in range(steps)} | {height})
        # per level below the root: keys, node offsets and key multiplier
        keys, offs, mults = [], [], []
        # each element's position in the parent level, None while that is
        # the root, whose one node is the array in order
        pos = None
        off_p = np.array([0, n], dtype=np.int32)
        for li in range(1, len(self.levels)):
            d, dn = self.levels[li - 1], self.levels[li]
            nodes = ranks >> (height - dn)
            # numpy radix-sorts 16-bit values, several times faster
            perm = np.argsort(nodes.astype(np.uint16) if dn <= 16 else nodes,
                              kind="stable").astype(np.int32)
            nodes = nodes[perm]
            off = np.zeros((1 << dn) + 1, dtype=np.int32)
            np.cumsum(np.bincount(nodes, minlength=1 << dn), out=off[1:])
            m = int(np.diff(off_p).max()) + 1
            key = nodes.astype(np.int32 if m << dn < 2**31 else np.int64)
            key *= m
            if pos is None:
                key += perm
            else:
                key += pos[perm]
                key -= off_p[nodes >> (dn - d)]
            key += 1
            keys.append(key)
            offs.append(off)
            mults.append(m)
            if dn < height:
                pos = np.empty(n, dtype=np.int32)
                pos[perm] = np.arange(n, dtype=np.int32)
                off_p = off
        self._E, self._off, self._mult = tuple(keys), tuple(offs), tuple(mults)
        # scan_width(k) lies in [_w1, _w1 + _K_WIDTH * (k - 1)], so
        # topk_ranks computes it only for a range between the two
        self._w1 = self.scan_width(1)
        self._mask_from = _mask_crossover(arr.sigma, n)
        self.last_visited = 0

    # stays until the benchmark retires its map_child tracing hook
    def map_child(self, li: int, child: int, a: int, b: int):
        """Interval of a level-li node mapped into important child `child`."""
        e = self._E[li]
        off = self._off[li]
        base, end = int(off[child]), int(off[child + 1])
        m = self._mult[li]
        # clipped to [1, m] and [0, m - 1], the needles fit the key dtype
        a = min(max(a, 1), m)
        b = min(max(b, 0), m - 1)
        j = child * m
        lo, hi = e[base:end].searchsorted(np.array([j + a, j + b + 1], e.dtype))
        return (int(lo) + 1, int(hi)) if lo < hi else (1, 0)

    def _step(self, li: int, ids, lo, w, k: int):
        """The first k non-empty children of the frontier's level-li nodes
        `ids` (highest first, intervals lo < p <= lo + w), highest first:
        (ids, lo, w) arrays, or only the ids when they are leaves."""
        e, m = self._E[li], self._mult[li]
        fan = self.levels[li + 1] - self.levels[li]
        leaf = li + 2 == len(self.levels)
        out, found = [], 0
        if li:
            # child ids and needles share the keys' dtype
            ids = ids.astype(e.dtype, copy=False)
            cols = np.arange((1 << fan) - 1, -1, -1, dtype=e.dtype)
            bound = np.minimum(w, 1 << fan).cumsum()
            i = 0
        else:
            top, step = 1 << fan, max(2 * k, _FIRST_BATCH)
        while found < k:
            if li == 0:
                # the root, one node: its children in doubling batches
                if top == 0:
                    break
                c = np.arange(top - 1, max(top - step, 0) - 1, -1, dtype=e.dtype)
                top, step = max(top - step, 0), 2 * step
                s = c * m
                s += int(lo[0]) + 1
                wid = int(w[0])
            else:
                # the shortest prefix of nodes i.. whose bound reaches k - found
                if i == len(ids):
                    break
                reach = k - found + (int(bound[i - 1]) if i else 0)
                j = min(int(bound.searchsorted(reach)) + 1, len(ids))
                c = ((ids[i:j, None] << fan) + cols).ravel()
                s = c * m
                s += np.repeat(lo[i:j] + 1, 1 << fan)
                wid = np.repeat(w[i:j], 1 << fan)
                i = j
            if leaf:
                # one needle per leaf: it is non-empty iff the first key at
                # or past s lies below s + wid.  Past the last key the index
                # is clipped to it, and that key lies below s, so both ends
                # are checked; leaf ids >= sigma hold no keys at all
                key = e.take(e.searchsorted(s), mode="clip")
                key -= s
                got = c[(key >= 0) & (key < wid)]
                out.append(got)
            else:
                self.last_visited += len(c)
                L = e.searchsorted(s)
                s += wid
                R = e.searchsorted(s)
                nz = R > L
                got, L = c[nz], L[nz]
                out.append((got, L - self._off[li][got], R[nz] - L))
            found += len(got)
        if leaf:
            return out[0][:k] if len(out) == 1 else np.concatenate(out)[:k]
        return tuple(np.concatenate(x)[:k] for x in zip(*out))

    def scan_width(self, k: int) -> int:
        """Widest range whose top k the scan answers: the descent's
        estimated cost in scanned positions, never below the root's
        fan-out.  The descent pays per level step, per leaf needle and per
        root child its first batches map.  Its leaf batches stop at the
        first node whose bound sum(min(size, 2^fan)) reaches k, so they
        map about k + 2^fan needles."""
        lv = self.levels
        if len(lv) == 1:
            return 0
        units = min(self._arr.sigma, k + (1 << (lv[-1] - lv[-2])))
        if len(lv) > 2:
            units += min(1 << lv[1], 2 * k + _FIRST_BATCH)
        return max(1 << lv[1],
                   int(_STEP_WIDTH * (len(lv) - 1) + _UNIT_WIDTH * units))

    def topk_ranks(self, a: int, b: int, k: int, t: int = 1) -> np.ndarray:
        """Ranks of the top-k colors of [a, b] (1-based) occurring there at
        least t times, highest first.  At t >= 2 the range is scanned at
        any width."""
        if t > 1:
            return self._scan(a, b, k, t)
        if len(self.levels) == 1:
            self.last_visited = 0
            return np.zeros(1, dtype=np.intp)
        w = b - a
        if w < self._w1 or (w < self._w1 + _K_WIDTH * (k - 1)
                            and w < self.scan_width(k)):
            return self._scan(a, b, k)
        return self._descend(a, b, k)

    def scanned_ranks(self, a: int, b: int) -> np.ndarray | None:
        """Every distinct rank of [a, b], highest first, from one scan when
        b - a < _w1: topk_ranks scans such a range at every k, since
        scan_width(k) >= _w1, so this list's prefixes are its answers.
        None for any wider range."""
        if b - a < self._w1:
            return self.topk_ranks(a, b, self._arr.sigma)
        return None

    def _scan(self, a: int, b: int, k: int, t: int = 1) -> np.ndarray:
        """The top k of the ranks that occur at least t times in [a, b],
        from the range's own ranks: sorted while b - a is below _mask_from,
        else counted in a sigma-long array read from the top."""
        self.last_visited = 0
        r = self._arr.ranks[a - 1 : b]
        if b - a >= self._mask_from:
            counts = np.bincount(r, minlength=self._arr.sigma)
            return np.flatnonzero(counts >= t)[: -k - 1 : -1]
        r = np.sort(r)
        # keep the last of each run of equal ranks
        last = np.empty(len(r), dtype=bool)
        last[-1] = True
        np.not_equal(r[1:], r[:-1], out=last[:-1])
        if t > 1:
            # the ranks are sorted, so a run at least t long ends at i iff
            # last[i] and r[i - t + 1] == r[i]
            tail = r[t - 1 :]
            last = last[t - 1 :] & (tail == r[: len(tail)])
            r = tail
        return r[last][: -k - 1 : -1]

    def _descend(self, a: int, b: int, k: int) -> np.ndarray:
        """The top k of [a, b] by walking a frontier down the levels."""
        self.last_visited = 0
        frontier = (np.zeros(1, dtype=np.int64), np.array([a - 1]),
                    np.array([b - a + 1]))
        for li in range(len(self.levels) - 1):
            frontier = self._step(li, *frontier, k)
        return frontier

    def measured_bits(self) -> int:
        return nbits(*self._E, *self._off)


class SparseTopK:
    """The sparse core over an array, answering in (color, priority) pairs:
    the one facade every kind but WaveletTopK is built on."""

    def __init__(self, arr: ColorArray, f: int = 2):
        self.arr = arr
        self.n = arr.n
        self.core = _SparseCore(arr, f)
        self.f = int(f)
        # at most f + 1 regular important levels, plus the leaf level when
        # the stride does not divide the tree height
        assert len(self.core.levels) <= self.f + 2

    @property
    def levels(self) -> list[int]:
        return self.core.levels

    def topk(self, a: int, b: int, k: int) -> ColorList:
        a, b, k = check_range(self.n, a, b, k)
        return self.arr.list_from_ranks(self.core.topk_ranks(a, b, k))

    def measured_bits(self) -> int:
        return self.core.measured_bits()
