"""Sparsified top-K index: auxiliary structures on a few tree levels only.

The balanced rank tree of the baseline is kept conceptually, but level
arrays exist only at "important" levels: multiples of
max(1, floor(log2 n) / f) clipped to the tree height, plus the leaf level.
Each level below the root stores its node offsets, a key per element that
maps intervals down from the level above (array E) and, above the leaf
level, its elements grouped by node (`vals`) with their group-local
predecessor array (`pred`, see primitives.make_pred).  Level li + 1's
arrays sit at index li of each per-level tuple.

E holds, for every element of the child level, the child-major key
`local_child * (n + 1) + e`, where local_child is the child's index among
its parent's children and e is the element's 1-based position inside the
parent.  Keys of one parent's children are increasing, so a batch of
children is mapped with one searchsorted over a vector of needles, two per
child.  Keys are int32 when 2^fanout * (n + 1) < 2^31 and int64 otherwise;
needles share the keys' dtype, so numpy never casts the haystack.

A query no wider than the root's fan-out (b - a + 1 <= 2^levels[1]) is
answered from its own ranks: the core reads rank_of[colors[a-1:b]] from the
ColorArray it was built over, sorts those values and returns the k highest
distinct ones.  The range then holds no more elements than the root has
children, and mapping it into them takes a few batches of numpy calls
where one sort does.  The core keeps a reference to the array, not a copy
of its ranks, so the rule stores nothing new.  WaveletTopK, whose root
fan-out is 2, does not use it.

Any wider query walks important levels top-down.  At a node, children are
mapped in batches from the highest priority down, each batch twice as large
as the one before.  Of the non-empty mapped children, the shortest prefix
whose size bound min(size, 2^(height - level)) reaches the remaining budget
is counted by one scan of pred (a value occurs in [L, R) iff one of its
positions there has pred < L).  Children that fit the budget are reported
wholesale from the same scan, and the first child that overshoots is
entered.  Larger f means fewer levels (less space) but wider scans.  This
is the chaining idea of Muthukrishnan (SODA 2002) with the range-minimum
walk replaced by a vectorized pass, driven by the greedy top-k descent of
Gagie, Navarro and Puglisi (TCS 2012).

_SparseCore is built over a ColorArray and answers in rank space (ranks
dense in [0, sigma)); SparseTopK, OptimalTopK and ChunkedTopK turn its ranks
back into (color, priority) pairs.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter, OutOfBounds
from .model import ColorArray, ColorList, QuerySpec, check_range
from .primitives import make_pred
from .util import ceil_log2, floor_log2, nbits

_BUCKET_SORT_MIN = 64
# children mapped by a node's first batch, at least; later batches double
_FIRST_BATCH = 16


class _SparseCore:
    __slots__ = (
        "n", "f", "height", "levels", "_arr",
        "_E", "_off", "_vals", "_pred", "last_visited",
    )

    def __init__(self, arr: ColorArray, f: int):
        if f < 2:
            raise BadParameter(f"level sparsification needs f >= 2, got {f}")
        # the array, not a copy of its ranks: the root-width scan reads it
        self._arr = arr
        ranks = arr.ranks()
        n = self.n = len(ranks)
        self.f = f
        height = self.height = ceil_log2(arr.sigma)
        stride = max(1, floor_log2(max(n, 1)) // f)
        # every multiple past the height clips to it, so stop there
        steps = min(f + 1, -(-height // stride))
        self.levels = sorted({i * stride for i in range(steps)} | {height})
        # per level below the root: keys, node offsets and, above the leaf
        # level, vals and pred; tuples, as empty ones cost no allocation
        keys, offs, vals_l, pred_l = [], [], [], []
        inv_p = off_p = None  # level 0 is one node in array order
        for li in range(1, len(self.levels)):
            d, dn = self.levels[li - 1], self.levels[li]
            fan = dn - d
            nodes = ranks >> (height - dn)
            perm = np.argsort(nodes, kind="stable").astype(np.int32)
            nodes_c = nodes[perm]
            off = np.zeros((1 << dn) + 1, dtype=np.int32)
            np.cumsum(np.bincount(nodes, minlength=1 << dn), out=off[1:])
            dtype = np.int32 if (n + 1) << fan < 2**31 else np.int64
            key = (nodes_c & ((1 << fan) - 1)).astype(dtype)
            key *= n + 1
            if inv_p is None:
                key += perm
            else:
                key += inv_p[perm]
                key -= off_p[nodes_c >> fan]
            key += 1
            keys.append(key)
            offs.append(off)
            if dn < height:
                vals = ranks[perm]
                vals_l.append(vals)
                pred_l.append(make_pred(vals, groups=nodes_c))
                inv_p = np.empty(n, dtype=np.int32)
                inv_p[perm] = np.arange(n, dtype=np.int32)
                off_p = off
        self._E, self._off = tuple(keys), tuple(offs)
        self._vals, self._pred = tuple(vals_l), tuple(pred_l)
        self.last_visited = 0

    def stored_elements(self) -> int:
        return self.n * len(self.levels)

    def map_child(self, li: int, child: int, a: int, b: int):
        """Interval of a level-li node mapped into important child `child`."""
        e = self._E[li]
        off = self._off[li]
        base, end = int(off[child]), int(off[child + 1])
        fan = self.levels[li + 1] - self.levels[li]
        j = (child & ((1 << fan) - 1)) * (self.n + 1)
        # clipped to [1, n + 1] and [0, n], the needles fit the key dtype
        a = min(max(a, 1), self.n + 1)
        b = min(max(b, 0), self.n)
        lo, hi = e[base:end].searchsorted(np.array([j + a, j + b + 1], e.dtype))
        return (int(lo) + 1, int(hi)) if lo < hi else (1, 0)

    def map_children(self, li: int, node: int, a: int, b: int, lo: int,
                     hi: int):
        """The level-li node's interval [a, b] mapped into its children
        lo..hi-1 (local indexes), listed from child hi-1 down: two arrays
        L, R of half-open position ranges in the child level's arrays."""
        e = self._E[li]
        off = self._off[li]
        first = node << (self.levels[li + 1] - self.levels[li])
        s0 = int(off[first + lo])
        seg = e[s0 : int(off[first + hi])]
        base = np.arange(hi - 1, lo - 1, -1, dtype=e.dtype)
        base *= self.n + 1
        pos = seg.searchsorted(base[:, None] + np.array([a, b + 1], e.dtype))
        pos += s0
        return pos[:, 0], pos[:, 1]

    def _scan_node(self, li: int, node: int, a: int, b: int, rem: int,
                   out: list):
        """Report the top `rem` ranks of the node's interval [a, b] into out
        as far as whole children allow.  Returns (child, a, b, rem) for the
        child the answer continues in, or None once it is complete."""
        fan = self.levels[li + 1] - self.levels[li]
        first = node << fan
        leaf = li + 2 == len(self.levels)
        if not leaf:
            vals, pred = self._vals[li], self._pred[li]
        cap = 1 << (self.height - self.levels[li + 1])
        hi, step = 1 << fan, max(2 * rem, _FIRST_BATCH)
        while hi > 0:
            lo = max(hi - step, 0)
            step *= 2
            self.last_visited += hi - lo
            L, R = self.map_children(li, node, a, b, lo, hi)
            nz = np.flatnonzero(R > L)
            top = first + hi - 1
            hi = lo
            if leaf:
                # leaf children: each non-empty one is a single rank
                if len(nz) >= rem:
                    out.extend((top - nz[:rem]).tolist())
                    return None
                out.extend((top - nz).tolist())
                rem -= len(nz)
                continue
            L, R = L[nz], R[nz]
            bound = np.minimum(R - L, cap).cumsum()
            i = 0
            while i < len(nz):
                # the shortest prefix of children i.. whose bound reaches rem
                reach = rem + (int(bound[i - 1]) if i else 0)
                m = min(int(bound.searchsorted(reach)) + 1, len(nz))
                Ls, sizes = L[i:m], R[i:m] - L[i:m]
                starts = np.cumsum(sizes) - sizes
                idx = np.arange(int(starts[-1] + sizes[-1]))
                idx += np.repeat(Ls - starts, sizes)
                mask = pred[idx] < np.repeat(Ls, sizes)
                cnt = np.add.reduceat(mask, starts).cumsum()
                q = int(cnt.searchsorted(rem))
                if q == len(cnt):
                    out.extend(vals[idx[mask]].tolist())
                    rem -= int(cnt[-1])
                    i = m
                    continue
                if cnt[q] == rem:
                    cut = int(starts[q] + sizes[q])
                    out.extend(vals[idx[:cut][mask[:cut]]].tolist())
                    return None
                cut = int(starts[q])
                out.extend(vals[idx[:cut][mask[:cut]]].tolist())
                if q:
                    rem -= int(cnt[q - 1])
                u = top - int(nz[i + q])
                base = int(self._off[li][u])
                return u, int(Ls[q]) - base + 1, int(R[i + q]) - base, rem
        return None

    def _descend(self, a: int, b: int, rem: int, out: list) -> None:
        last = len(self.levels) - 1
        li, node = 0, 0
        while li < last:
            step = self._scan_node(li, node, a, b, rem, out)
            if step is None:
                return
            node, a, b, rem = step
            li += 1
        out.append(node)

    def topk_ranks(self, a: int, b: int, k: int) -> list[int]:
        """Ranks of the top-k colors of [a, b] (1-based), highest first."""
        if len(self.levels) > 1 and b - a < 1 << self.levels[1]:
            # no wider than the root's fan-out: reading the range costs
            # less than mapping it into the root's children
            self.last_visited = b - a + 1
            arr = self._arr
            r = arr.rank_of[arr.colors[a - 1 : b]]
            r.sort()
            # keep the last of each run of equal ranks
            last = np.empty(len(r), dtype=bool)
            last[-1] = True
            np.not_equal(r[1:], r[:-1], out=last[:-1])
            return r[last][: -k - 1 : -1].tolist()
        self.last_visited = 0
        out: list[int] = []
        self._descend(a, b, k, out)
        if len(out) >= _BUCKET_SORT_MIN:
            mark = np.zeros(self._arr.sigma, dtype=bool)
            mark[out] = True
            return np.flatnonzero(mark)[::-1].tolist()
        return sorted(out, reverse=True)

    def measured_bits(self) -> int:
        return nbits(*self._E, *self._off, *self._vals, *self._pred)


class SparseTopK:
    def __init__(self, arr: ColorArray, f: int = 2):
        self.arr = arr
        self.n = arr.n
        self.f = f
        self.core = _SparseCore(arr, f)
        # each element lives in one array per important level; the leaf level
        # can exceed the f+1 regular ones when the stride does not divide the
        # tree height
        assert self.core.stored_elements() <= (f + 2) * arr.n

    @property
    def levels(self) -> list[int]:
        return self.core.levels

    def descend_interval(self, level_index: int, child: int, a: int, b: int):
        """Map a node interval into one important child; (1, 0) when empty."""
        core = self.core
        if not 0 <= level_index < len(core.levels) - 1:
            raise OutOfBounds(f"no child level below level index {level_index}")
        off = core._off[level_index]
        if not 0 <= child < len(off) - 1:
            raise OutOfBounds(f"child {child} out of range")
        return core.map_child(level_index, child, a, b)

    def topk(self, a: int, b: int, k: int) -> ColorList:
        check_range(self.n, a, b, k)
        ranks = self.core.topk_ranks(a, b, k)
        self.last_visited = self.core.last_visited
        return self.arr.list_from_ranks(ranks)

    def query(self, q: QuerySpec) -> ColorList:
        return self.topk(q.a, q.b, q.k)

    def measured_bits(self) -> int:
        return self.core.measured_bits()
