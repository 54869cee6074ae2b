"""Distinct-value reporting and counting over ranges of an array.

Both structures rest on the predecessor array: pred[i] is the index of the
previous occurrence of values[i] (or -1).  A value occurs in [l, r) iff some
position i in the range has pred[i] < l, and that witness position is unique
per value.  Reporting the distinct values of a range is therefore one
vectorized scan for the positions with pred below l, and counting them is
the same scan counted: O(r - l) work in a single numpy pass, which beats a
logarithmic structure over pred at the range widths the indexes ask for.

Ranges here are 0-based half-open, [l, r): ColorReporter.positions returns
the witness positions as an intp array, and ColorCounter.count_range their
number.  A count capped at c reads a prefix of the range first and stops
there once the prefix holds more than c distinct values, so a caller that
only needs to know whether a count exceeds c reads less of a wide range.

The witness rule holds for any range of the array, so when an array is the
concatenation of independent segments (each level of WaveletTopK's wavelet
matrix, where every node is one contiguous interval), one pred over the
whole array, handed to both structures, serves every segment: a query for
segment range [l, r) with threshold l is correct with global indices,
wherever the previous occurrence lies.

ArgminSegtree is the logarithmic alternative over pred, kept as a
standalone structure.  make_pred, ColorCounter and ColorReporter serve only
WaveletTopK: the sparse core keeps no pred array, and finds a range's
distinct ranks by mapping it into the leaf level.
"""

from __future__ import annotations

import numpy as np

from .util import ceil_log2, nbits

_INF = np.int64(2**62)


def make_pred(values) -> np.ndarray:
    """Index of the previous occurrence of the same value, or -1."""
    values = np.asarray(values)
    n = len(values)
    pred = np.full(n, -1, dtype=np.int32)
    if n == 0:
        return pred
    # numpy radix-sorts 16-bit values, several times faster
    if 0 <= int(values.min()) and int(values.max()) < 1 << 16:
        key = values.astype(np.uint16)
    else:
        key = values.astype(np.int64, copy=False)
    order = np.argsort(key, kind="stable")
    sk = key[order]
    same = sk[1:] == sk[:-1]
    pred[order[1:][same]] = order[:-1][same]
    return pred


class ArgminSegtree:
    """Position of the minimum over any half-open range, leftmost on ties.

    Only argument indices are stored; values are looked up in the referenced
    array, halving the footprint.
    """

    __slots__ = ("n", "size", "vals", "arg")

    def __init__(self, vals):
        self.vals = np.asarray(vals)
        self.n = len(self.vals)
        size = 1 << ceil_log2(max(self.n, 1))
        self.size = size
        arg = np.full(2 * size, -1, dtype=np.int32)
        arg[size : size + self.n] = np.arange(self.n, dtype=np.int32)
        lvl = size
        while lvl > 1:
            left = arg[lvl : 2 * lvl : 2]
            right = arg[lvl + 1 : 2 * lvl : 2]
            lv = np.where(left >= 0, self.vals[np.maximum(left, 0)], _INF)
            rv = np.where(right >= 0, self.vals[np.maximum(right, 0)], _INF)
            arg[lvl // 2 : lvl] = np.where(rv < lv, right, left)
            lvl //= 2
        self.arg = arg

    def argmin(self, l: int, r: int) -> int:
        """Index of the minimum of vals[l:r]; -1 on an empty range."""
        best = -1
        bv = _INF
        l += self.size
        r += self.size
        while l < r:
            if l & 1:
                a = int(self.arg[l])
                if a >= 0:
                    v = self.vals[a]
                    if v < bv or (v == bv and a < best):
                        bv, best = v, a
                l += 1
            if r & 1:
                r -= 1
                a = int(self.arg[r])
                if a >= 0:
                    v = self.vals[a]
                    if v < bv or (v == bv and a < best):
                        bv, best = v, a
            l >>= 1
            r >>= 1
        return best

    def walk_below(self, l: int, r: int, thresh: int, cap=None):
        """Ascending positions i in [l, r) with vals[i] < thresh.

        Stops early once cap + 1 positions are found, letting the caller
        detect that more remain.  Returns (positions, nodes_visited).
        """
        out: list[int] = []
        if l >= r or self.n == 0:
            return out, 0
        visited = 0
        stack = [(1, 0, self.size)]
        vals = self.vals
        arg = self.arg
        while stack:
            node, nl, nr = stack.pop()
            a = int(arg[node])
            if nl >= r or nr <= l or a < 0 or vals[a] >= thresh:
                continue
            visited += 1
            if nr - nl == 1:
                out.append(nl)
                if cap is not None and len(out) > cap:
                    break
                continue
            mid = (nl + nr) >> 1
            stack.append((node * 2 + 1, mid, nr))
            stack.append((node * 2, nl, mid))
        return out, visited

    def measured_bits(self) -> int:
        return self.arg.nbytes * 8


class ColorReporter:
    """Reports each distinct value of a range exactly once.

    `positions(l, r)` returns the witness positions: the first occurrence of
    each distinct value in [l, r), 0-based half-open.
    """

    __slots__ = ("values", "pred")

    def __init__(self, values, pred=None):
        self.values = np.asarray(values)
        self.pred = make_pred(self.values) if pred is None else np.asarray(pred)

    def positions(self, l: int, r: int) -> np.ndarray:
        """Ascending witness positions in [l, r), an intp array."""
        return np.flatnonzero(self.pred[l:r] < l) + l

    def measured_bits(self) -> int:
        return nbits(self.values, self.pred)


class ColorCounter:
    """Counts distinct values in a range with one scan of pred."""

    __slots__ = ("pred",)

    def __init__(self, values, pred=None):
        self.pred = make_pred(values) if pred is None else np.asarray(pred)

    def count_range(self, l: int, r: int, cap=None) -> int:
        """Distinct values in [l, r), 0-based half-open.

        With a cap, the count is exact when it is at most cap, and otherwise
        some value above cap and at most the exact one: a prefix of
        4 * cap + 64 positions is counted first, and the rest of the range
        is read only when that prefix holds at most cap distinct values.
        Spread evenly, 2 * cap values show about 1.73 * cap of themselves
        in 4 * cap positions, and 64 more cost little beside a numpy call.
        """
        pred = self.pred
        if cap is not None:
            mid = l + 4 * cap + 64
            if mid < r:
                m = int(np.count_nonzero(pred[l:mid] < l))
                if m > cap:
                    return m
                return m + int(np.count_nonzero(pred[mid:r] < l))
        return int(np.count_nonzero(pred[l:r] < l))
