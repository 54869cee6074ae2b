"""The `chunked` index kind: the fitted sparse core under its own name.

The paper reaches O(N log sigma) bits by cutting the array into chunks with
a per-chunk color summary, and word-packing chunks when sigma is small.
Measured against the plain f=2 sparse core under it, that machinery was
slower on every query class and larger per element at every alphabet size
tried, so ChunkedTopK is now a sparse core alone, kept under its own name
so the `chunked` kind, its CLI option and its snapshots still work.  It is
the same structure as OptimalTopK, on the same fitted_levels, but a class
of its own: snapshots record the kind by class.
"""

from __future__ import annotations

import numpy as np

from .model import ColorArray
from .sparse import SparseTopK, fitted_levels

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


class ChunkedTopK(SparseTopK):
    # __init__, topk and topk_ranks stay in this class body, and last_path
    # and _word_table on its instances, until the benchmark retires its
    # chunked.* tracing hooks
    def __init__(self, arr: ColorArray):
        self._build(arr, fitted_levels(arr.n, arr.sigma))
        self.last_path = "core"
        self._word_table: dict = {}

    def topk_ranks(self, a: int, b: int, k: int) -> np.ndarray:
        return self.core.topk_ranks(a, b, k)

    topk = SparseTopK.topk
