"""The `chunked` index kind: one f=2 sparse core over the array's ranks.

The paper reaches O(N log sigma) bits by cutting the array into chunks with
a per-chunk color summary, and word-packing chunks when sigma is small.
Measured against the plain f=2 sparse core under it, that machinery was
slower on every query class and larger per element at every alphabet size
tried, so ChunkedTopK is now that core alone, kept under its own name so
the `chunked` kind, its CLI option and its snapshots still work.  It is the
same structure as OptimalTopK, but a class of its own: snapshots record the
kind by class.
"""

from __future__ import annotations

from .model import ColorArray, ColorList, QuerySpec, check_range
from .sparse import _SparseCore

# stays until the benchmark retires its chunked.* tracing hooks
_WORD_TABLE_CAP = 1 << 14


# stays until the benchmark retires its chunked.* tracing hooks
def _word_topk(table: dict, bits: int, word: int, lo: int, hi: int,
               key_ok: bool) -> tuple:
    """Distinct values packed in word positions [lo, hi), descending."""
    key = (bits, word, lo, hi)
    if key_ok:
        hit = table.get(key)
        if hit is not None:
            return hit
    mask = (1 << bits) - 1
    res = tuple(
        sorted({(word >> (t * bits)) & mask for t in range(lo, hi)},
               reverse=True)
    )
    if key_ok:
        if len(table) >= _WORD_TABLE_CAP:
            table.clear()
        table[key] = res
    return res


class ChunkedTopK:
    # stays until the benchmark retires its chunked.* tracing hooks
    def __init__(self, arr: ColorArray):
        self.arr = arr
        self.n = arr.n
        self._core = _SparseCore(arr, 2)
        # stays until the benchmark retires its chunked.* tracing hooks
        self.last_path = "core"
        # stays until the benchmark retires its chunked.* tracing hooks
        self._word_table: dict = {}

    # stays until the benchmark retires its chunked.* tracing hooks
    def topk_ranks(self, a: int, b: int, k: int) -> list[int]:
        return self._core.topk_ranks(a, b, k)

    # stays until the benchmark retires its chunked.* tracing hooks
    def topk(self, a: int, b: int, k: int) -> ColorList:
        check_range(self.n, a, b, k)
        return self.arr.list_from_ranks(self._core.topk_ranks(a, b, k))

    def query(self, q: QuerySpec) -> ColorList:
        return self.topk(q.a, q.b, q.k)

    def measured_bits(self) -> int:
        return self._core.measured_bits()
