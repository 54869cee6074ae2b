"""The default top-K index: one f=2 sparse core over the array's ranks.

The paper reaches O(K) query time through a hierarchy of grids of
precomputed candidate lists.  With grid points spaced
floor(sqrt N) * max(ceil(log2 N)^2, 4096) apart, the first grid only fits
once N >= 2^24, so at every size this package can build the hierarchy is
empty and every query goes to its global fallback.  OptimalTopK is that
fallback alone: a _SparseCore with f=2 over the per-position priority
ranks, answering in rank space and converting back to (color, priority)
pairs at the end.  The core stores one key array and its node offsets per
important level, nothing else: 64.6 bits per element at sigma = 4096 and
N = 2^18, whose levels are {0, 9, 12}.  A range no wider than the core's
scan width, the descent's measured cost in scanned positions (about 3.2k
positions at k = 1 and 32k at k = 1024 there), is answered by sorting its
own ranks, read from the ColorArray the index already holds, so that rule
stores nothing new.  A wider range walks a frontier of at most k nodes down
the levels, and tests each leaf under it with one searchsorted needle; the
leaves found are the answer, in rank order.

two_list_union, the paper's merge of two candidate lists, is kept as a
public helper over ColorLists.
"""

from __future__ import annotations

from .model import ColorArray, ColorList, QuerySpec, check_range
from .sparse import _SparseCore


def two_list_union(lx: ColorList, ly: ColorList, k: int) -> ColorList:
    """Top-k distinct colors of two priority-descending lists."""
    out = []
    seen = set()
    i = j = 0
    ex, ey = list(lx), list(ly)
    while len(out) < k and (i < len(ex) or j < len(ey)):
        if j >= len(ey):
            c, p = ex[i]
            i += 1
        elif i >= len(ex):
            c, p = ey[j]
            j += 1
        elif (ex[i][1], ex[i][0]) >= (ey[j][1], ey[j][0]):
            c, p = ex[i]
            i += 1
        else:
            c, p = ey[j]
            j += 1
        if c not in seen:
            seen.add(c)
            out.append((c, p))
    return ColorList(out)


class OptimalTopK:
    def __init__(self, arr: ColorArray):
        self.arr = arr
        self.n = arr.n
        self._global = _SparseCore(arr, 2)

    def topk(self, a: int, b: int, k: int) -> ColorList:
        check_range(self.n, a, b, k)
        return self.arr.list_from_ranks(self._global.topk_ranks(a, b, k))

    def query(self, q: QuerySpec) -> ColorList:
        return self.topk(q.a, q.b, q.k)

    def measured_bits(self) -> int:
        return self._global.measured_bits()
