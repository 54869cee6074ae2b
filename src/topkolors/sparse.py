"""Sparsified top-K index: one key array on a few tree levels only.

The balanced rank tree of the baseline is kept conceptually, but level
arrays exist only at a few "important" levels, from the root (0) to the
leaf level h = ceil(log2 sigma).  SparseTopK(f) places them at the
multiples of max(1, floor(log2 n) / f) below h (stride_levels): a larger f
means more levels, so more space and narrower frontiers; at sigma = 4096
and N = 2^18, f = 2 builds {0, 9, 12} in 64.6 bits per element and f = 8
seven levels in 193.  OptimalTopK and ChunkedTopK take fitted_levels:
the stride rule of f = 2 up to h = 10; past it the flat {0, h} while its
keys fit int32, (N + 1) * 2^h < 2^31, else {0, ceil(h / 2), h}.  So
sigma = 4096 and N = 2^18 build {0, 12} in 33.5 bits per element, and
N = 2^20 keeps {0, 6, 12}.  Each level below the root stores its node
offsets and one key per element (array E); level li + 1's arrays sit at
index li of each per-level tuple.  A flat core past h = 10 also keeps a
rank-group presence summary (below), nothing else.

E lists the level's elements grouped by node, and holds for each the key
`node * M + p`: node is the element's global node id on that level, p its
1-based position inside its parent node, and M the largest parent-node size
plus one.  Keys are increasing over the whole level, so the interval (lo, hi]
of a parent node maps into its child c as the keys in
[c * M + lo + 1, c * M + hi + 1), and any batch of children, of one node or
of many, is mapped with one searchsorted over a vector of needles.  Keys
are int32 when 2^level * M < 2^31 and int64 otherwise; needles share the
keys' dtype, so numpy never casts the haystack.  The keys are distinct, so
the build computes them in the parent level's order and sorts them.

A query no wider than scan_width(k) is answered from its own ranks: the
core reads one slice, ranks[a-1:b], of the per-position ranks the
ColorArray stores (uint16 up to sigma = 2^16), with no gather.  It takes
the cheaper of two kernels.  A narrow slice is sorted, and the k highest
distinct values kept, in O(w log w).  A wider one is counted in a
sigma-long array, whose entries of at least t are read from the top, in
O(w + sigma).  One cost rule on (w, sigma) picks the kernel: the sort
costs w * log2(min(w, sigma)) comparisons, the count _MASK_POSITION per
position and _MASK_COLOR per color.  The count takes over from about 1.6k
positions at sigma = 4096 and 16k at sigma = 2^16 + 1, and never at
sigma <= 32.  topk_ranks with a threshold t >= 2, which
DocumentIndex.t_mine asks for, keeps only the ranks occurring at least t
times in the range and always scans, whatever the width, since the
descent cannot count: under the same kernel switch, the sort kernel keeps
only runs of equal ranks at least t long, and the count keeps only
entries of at least t.

scan_width(k) is the descent's estimated cost in scanned positions: a
fixed cost per level step, plus a cost per unit of its work.  Under a
middle level the units are the leaf needles, at most
min(sigma, k + 2^leaf fan), since a leaf batch stops within the first node
whose bound reaches k, plus the root children its first batch maps,
min(2^levels[1], k + 16).  A flat root maps about one leaf per answer
past its first batch: min(sigma, k + 16) units.  All four constants are
fitted to a sweep of the three paths' times (tools/scan_sweep.py,
BENCH_root_summary.json).  The width never falls below the root's fan-out
and grows with k: at sigma = 4096 and N = 2^18 (levels {0, 12}) it is
7765 positions at k = 1 and 53.8k at k = 1024, and at sigma = 4 7180
whatever k.  The core keeps a reference to the
array, not a copy of its ranks, so the rule stores nothing new.
WaveletTopK does not use it.  A range narrower than scan_width(1) is
scanned at every k, so scanned_ranks hands a ColorStream all of its
distinct ranks from one scan, and None for any wider range.

Any wider query walks a frontier down the important levels: at most k
non-empty nodes of one level, highest ranks first, each with its interval.
The root maps its children in batches from the highest down, the first of
max(k, 16) and each twice as large as the one before, until k are
non-empty.  A flat root maps its leaves from sigma - 1 down instead, in a
first batch of max(k, 16) capped at 64, each next batch sized to the
leaves still missing over the last batch's share of hits.  Past h = 10,
once a batch comes back less than half full, it reads the summary: for
every block of 512 positions, one bit per group of 8 consecutive ranks
that occurs there, 64 groups to a uint64 word, stored word-major so that
the OR over a range's whole blocks reads contiguous runs; the ranks of the
two partial end blocks are read from the array.  The rest of the batches
then take only the leaves of the groups present, highest first.  At
sigma = 4096 that is 1 bit per element, and a range that holds only low
ranks no longer maps thousands of empty leaves.  The summary is built from
the ranks with the keys, so a snapshot never stores it.  Block, group and
cap are fitted by the root sweep of tools/scan_sweep.py --levels, on
uniform, skewed and scattered arrays.
A lower frontier maps its nodes' children in batches too, each
the shortest prefix of the columns left whose bound sum(min(size, 2^fan))
reaches the number of children still missing.  The batch takes every
column of each node but its last, and of a last node holding at least
4 * 2^fan elements only the top columns still needed, at least 16 and
twice as many as it mapped of that node before: on a wide uniform range
nearly all of those are non-empty.
The non-empty children, kept in order and cut to k, are the next frontier:
every one of them holds at least one rank, and all its ranks exceed those
of the next.  A leaf child is one rank, and needs one needle: it is
non-empty iff the first key at or past c * M + lo + 1 lies below
c * M + hi + 1.  The leaf ids found are the answer, already sorted, for a
level set of any depth.  No level stores its ranks or a counting
structure; this is the greedy top-k descent of Gagie, Navarro and Puglisi
(TCS 2012) on a multiary wavelet tree (Ferragina, Manzini, Makinen and
Navarro, ACM TALG 2007).  last_visited counts the children mapped above
the leaf level, 0 when the scan ran.

_SparseCore is built over a ColorArray and answers in rank space (ranks
dense in [0, sigma)); SparseTopK turns its ranks back into (color, priority)
pairs.  OptimalTopK and ChunkedTopK are SparseTopK on fitted_levels under
the `optimal` and `chunked` kind names, which snapshots record by class;
they hold no level parameter, so a load builds the fitted levels again.
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
# elements per block where the build adds positions to keys
_BLOCK = 1 << 16
# A lower frontier's last node is cut to the columns still needed only when
# it holds this many elements per column; then, on uniform ranks, all but
# about e^-4 of its children are non-empty
_CUT_DENSITY = 4
# the greatest tree height at which fitted_levels keeps the stride rule
_STRIDE_HEIGHT = 10
# A flat core past _STRIDE_HEIGHT keeps, for every block of _SUMMARY_BLOCK
# positions, one bit per group of _SUMMARY_GROUP consecutive ranks that
# occurs in it; its root reads them once its first batch comes back short.
# Both are powers of two.
_SUMMARY_BLOCK = 512
_SUMMARY_GROUP = 8
# the most leaves the flat root's first batch maps
_FLAT_BATCH = 64
# The descent's cost in scanned positions: per level step, and per unit of
# its work (a leaf needle, or a root child mapped).  Fitted to the sweep of
# the scans' and the descent's times recorded in BENCH_root_summary.json.
_STEP_WIDTH = 7000
_UNIT_WIDTH = 45
# the most scan_width grows per unit of k: one leaf needle, one root child
_K_WIDTH = 2 * _UNIT_WIDTH
# The scan's two kernels, costed in sort comparisons: the count's per
# position and per color of its sigma-long array.  Fitted to the sweep of
# both kernels recorded in BENCH_mask_scan.json.
_MASK_POSITION = 5.0
_MASK_COLOR = 2.25


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


def _summary(ranks: np.ndarray, sigma: int) -> np.ndarray:
    """The rank-group presence summary of ranks: column i has bit g set iff
    a rank of group g, from g * _SUMMARY_GROUP up to the next group's,
    occurs in positions [i * _SUMMARY_BLOCK, (i + 1) * _SUMMARY_BLOCK); 64
    groups to a uint64 word."""
    n = len(ranks)
    blocks = -(-n // _SUMMARY_BLOCK)
    width = 64 * -(-sigma // (64 * _SUMMARY_GROUP))
    flags = np.zeros(blocks * width, dtype=bool)
    # 16 blocks at a time, so that no temporary is large: each position
    # marks its group in its block's row of flags
    step = 16 * _SUMMARY_BLOCK
    row = np.arange(step, dtype=np.int32) // _SUMMARY_BLOCK * width
    for lo in range(0, n, step):
        at = ranks[lo : lo + step] // _SUMMARY_GROUP + row[: min(step, n - lo)]
        at += lo // _SUMMARY_BLOCK * width
        flags[at] = True
    # one row per word, so that the OR over a range's blocks reads each
    # row's contiguous run
    packed = np.packbits(flags.reshape(blocks, width), axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _hits(e: np.ndarray, c: np.ndarray, s: np.ndarray, wid) -> np.ndarray:
    """The leaves of c that are non-empty: leaf c[i]'s keys in
    [s[i], s[i] + wid) exist iff the first key at or past s[i] lies below
    s[i] + wid.  Past the last key the index is clipped to it, and that key
    lies below s, so both ends are checked; leaf ids >= sigma hold no keys
    at all."""
    key = e.take(e.searchsorted(s), mode="clip")
    key -= s
    return c[(key >= 0) & (key < wid)]


def stride_levels(n: int, sigma: int, f: int) -> list[int]:
    """SparseTopK(f)'s level set: the multiples of
    max(1, floor(log2 n) / f) below the tree height ceil(log2 sigma), at
    most f + 1 of them, and the height itself."""
    height = ceil_log2(sigma)
    stride = max(1, floor_log2(max(n, 1)) // f)
    # every multiple past the height clips to it, so stop there
    steps = min(f + 1, -(-height // stride))
    return sorted({i * stride for i in range(steps)} | {height})


def fitted_levels(n: int, sigma: int) -> list[int]:
    """The level set of OptimalTopK and ChunkedTopK.  Up to a tree height
    h = ceil(log2 sigma) of _STRIDE_HEIGHT it is SparseTopK(2)'s, which is
    the flat {0, h} once n >= 2^(2h).  Past it, the flat {0, h} while its
    keys fit int32, else {0, ceil(h / 2), h}.  Fitted to the level-set
    sweep of tools/scan_sweep.py (BENCH_root_summary.json).  From h = 11 on,
    the flat set with its rank-group summary is the cheapest set none of
    whose cells is slower than the stride rule's, in half its bits; with
    int64 keys it would hold more bits than the stride rule's set, so the
    middle level halfway down stays.  Up to h = 10 the flat set is cheaper
    still at every N, but the stride rule's middle level below n = 2^(2h)
    keeps the build's time doubling with n: flat, a 2^19 build takes about
    3 ms, and a cold 2^20 one pays about 1.5 ms more for its fresh key
    pages alone."""
    height = ceil_log2(sigma)
    if height <= _STRIDE_HEIGHT:
        return stride_levels(n, sigma, 2)
    if (n + 1) << height < 2**31:
        return [0, height]
    return [0, -(-height // 2), height]


class _SparseCore:
    __slots__ = ("levels", "_arr", "_E", "_off", "_mult", "_summary", "_w1",
                 "_mask_from", "last_visited")

    def __init__(self, arr: ColorArray, levels: list[int]):
        """The core over arr on `levels`: increasing, from 0 to the tree
        height ceil(log2 sigma)."""
        # the array, not a copy of its ranks: the scan reads them
        self._arr = arr
        ranks = arr.ranks
        n = len(ranks)
        height = levels[-1]
        self.levels = list(levels)
        # per level below the root: keys, node offsets and key multiplier
        keys, offs, mults = [], [], []
        # the parent level's elements as array indexes, in its order; None
        # while the parent is the root, whose one node is the array in order
        perm = None
        off_p = np.array([0, n], dtype=np.int32)
        for li in range(1, len(self.levels)):
            d, dn = self.levels[li - 1], self.levels[li]
            # the keys are laid out in the parent level's order: each
            # element's node here, times m, plus its position there, plus 1
            nodes = ranks if perm is None else ranks[perm]
            if dn < height:
                nodes = nodes >> (height - dn)
            m = int(np.diff(off_p).max()) + 1
            dtype = np.int32 if m << dn < 2**31 else np.int64
            # the leaf level reads the permutation only for its nodes, so
            # its keys may take the permutation's place
            reuse = dn == height and perm is not None and perm.dtype == dtype
            key = np.multiply(nodes, m, out=perm if reuse else None,
                              dtype=dtype)
            del nodes
            # a block at a time: an n-long arange would be a second fresh
            # n-long array
            step = np.arange(1, _BLOCK + 1, dtype=key.dtype)
            for lo in range(0, n, _BLOCK):
                block = key[lo : lo + _BLOCK]
                block += step[: len(block)]
                step += _BLOCK
            if perm is not None:
                # minus the start of the parent node: the position in it
                key -= np.repeat(off_p[:-1], np.diff(off_p))
            # the keys are distinct and grow with (node, position in the
            # parent node), so sorting them lays the level out: several
            # times faster than a stable argsort of the nodes and a gather
            key.sort()
            # node c's keys are the ones from c * m on
            off = key.searchsorted(
                np.arange((1 << dn) + 1, dtype=key.dtype) * m
            ).astype(np.int32)
            keys.append(key)
            offs.append(off)
            mults.append(m)
            if dn < height:
                # each element's position in its parent node, then in the
                # parent level, then in the array: keys are node * m + p + 1
                # with p + 1 < m
                p = key % m
                p -= 1
                if perm is not None:
                    p += off_p[key // m >> (dn - d)]
                    p = perm[p]
                perm = p.astype(np.int32, copy=False)
                off_p = off
        self._E, self._off, self._mult = tuple(keys), tuple(offs), tuple(mults)
        self._summary = (_summary(ranks, arr.sigma)
                         if len(levels) == 2 and height > _STRIDE_HEIGHT else None)
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
            # the next node, and how many of its columns are mapped
            i = done = 0
        else:
            top, step = 1 << fan, max(k, _FIRST_BATCH)
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
                # the shortest prefix of the columns left whose bound
                # reaches k - found: whole nodes up to the last one, and of
                # that one, when it holds _CUT_DENSITY elements per column,
                # only the columns still needed, at least _FIRST_BATCH and
                # twice those mapped before
                if i == len(ids):
                    break
                reach = k - found + (int(bound[i - 1]) if i else 0) + done
                j = min(int(bound.searchsorted(reach)) + 1, len(ids))
                end = max(reach - (int(bound[j - 2]) if j > 1 else 0),
                          _FIRST_BATCH, 2 * done if j - 1 == i else 0)
                if end > 1 << fan or w[j - 1] < _CUT_DENSITY << fan:
                    end = 1 << fan
                cut = slice(done, ((j - 1 - i) << fan) + end)
                c = ((ids[i:j, None] << fan) + cols).ravel()[cut]
                s = c * m
                s += np.repeat(lo[i:j] + 1, 1 << fan)[cut]
                wid = np.repeat(w[i:j], 1 << fan)[cut]
                i, done = (j - 1, end) if end < 1 << fan else (j, 0)
            if leaf:
                # one needle per leaf
                got = _hits(e, c, s, wid)
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
        root child its first batches map.  Below a middle level, its leaf
        batches stop at the first node whose bound sum(min(size, 2^fan))
        reaches k, so they map about k + 2^fan needles; a flat root maps
        about k + _FIRST_BATCH."""
        lv = self.levels
        if len(lv) == 1:
            return 0
        if len(lv) == 2:
            units = min(self._arr.sigma, k + _FIRST_BATCH)
        else:
            units = (min(self._arr.sigma, k + (1 << (lv[-1] - lv[-2])))
                     + min(1 << lv[1], k + _FIRST_BATCH))
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
        if len(self.levels) == 2:
            return self._flat_root(a, b, k)
        frontier = (np.zeros(1, dtype=np.int64), np.array([a - 1]),
                    np.array([b - a + 1]))
        for li in range(len(self.levels) - 1):
            frontier = self._step(li, *frontier, k)
        return frontier

    def _flat_root(self, a: int, b: int, k: int) -> np.ndarray:
        """The top k of [a, b] on a flat core.  The root maps its leaves
        from sigma - 1 down in batches, the first of max(k, _FIRST_BATCH)
        but at most _FLAT_BATCH, each next one of the leaves still missing
        over the last batch's share of non-empty leaves, plus _FIRST_BATCH.
        With a summary, once a batch comes back less than half full, the
        rest are only the leaves of the rank groups that occur in [a, b],
        highest first."""
        e, m = self._E[0], self._mult[0]
        w = b - a + 1
        top = self._arr.sigma
        step = min(max(k, _FIRST_BATCH), _FLAT_BATCH)
        out, found, groups = [], 0, None
        while found < k:
            if groups is None:
                if top == 0:
                    break
                c = np.arange(top - 1, max(top - step, 0) - 1, -1, dtype=e.dtype)
                top = max(top - step, 0)
            else:
                # whole groups, as many as the batch needs
                if j == len(groups):
                    break
                g = groups[j : j + -(-step // _SUMMARY_GROUP)]
                j += len(g)
                c = (g[:, None] * _SUMMARY_GROUP
                     + np.arange(_SUMMARY_GROUP - 1, -1, -1)).ravel()
                c = c[c < top].astype(e.dtype)
            got = _hits(e, c, c * m + a, w)
            out.append(got)
            found += len(got)
            if (groups is None and 2 * len(got) < len(c) and top
                    and self._summary is not None):
                groups, j = self._present(a, b, top), 0
            # the leaves still missing over the last batch's share of hits
            step = (k - found) * len(c) // max(len(got), 1) + _FIRST_BATCH
        return out[0][:k] if len(out) == 1 else np.concatenate(out)[:k]

    def _present(self, a: int, b: int, top: int) -> np.ndarray:
        """The rank groups that occur in [a, b] and hold a leaf below top,
        highest first: the summary columns of the range's whole blocks
        ORed, and the ranks of the partial blocks at its ends read from the
        array."""
        lo = -(-(a - 1) // _SUMMARY_BLOCK)
        hi = b // _SUMMARY_BLOCK
        word = np.bitwise_or.reduce(self._summary[:, lo:hi], axis=1)
        flags = np.unpackbits(word.view(np.uint8), bitorder="little")
        ranks = self._arr.ranks
        if lo < hi:
            edges = np.concatenate((ranks[a - 1 : lo * _SUMMARY_BLOCK],
                                    ranks[hi * _SUMMARY_BLOCK : b]))
        else:
            edges = ranks[a - 1 : b]
        flags[edges // _SUMMARY_GROUP] = 1
        return np.flatnonzero(flags[: -(-top // _SUMMARY_GROUP)])[::-1]

    def measured_bits(self) -> int:
        return nbits(*self._E, *self._off, self._summary)


class SparseTopK:
    """The sparse core over an array, answering in (color, priority) pairs:
    the one facade every kind but WaveletTopK is built on.  SparseTopK(f)
    places its levels with stride_levels; OptimalTopK and ChunkedTopK with
    fitted_levels."""

    def __init__(self, arr: ColorArray, f: int = 2):
        try:
            f = operator.index(f)
        except TypeError:
            raise BadParameter(
                f"level sparsification f must be an integer, got {f!r}"
            ) from None
        if f < 2:
            raise BadParameter(f"level sparsification needs f >= 2, got {f}")
        self.f = f
        self._build(arr, stride_levels(arr.n, arr.sigma, f))
        assert len(self.core.levels) <= self.f + 2

    def _build(self, arr: ColorArray, levels: list[int]) -> None:
        self.arr = arr
        self.n = arr.n
        self.core = _SparseCore(arr, levels)

    @property
    def levels(self) -> list[int]:
        return self.core.levels

    def topk(self, a: int, b: int, k: int) -> ColorList:
        a, b, k = check_range(self.n, a, b, k)
        return self.arr.list_from_ranks(self.core.topk_ranks(a, b, k))

    def measured_bits(self) -> int:
        return self.core.measured_bits()
