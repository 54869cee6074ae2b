"""Bitvector with constant-time rank.

Bits are packed into uint64 words; an exclusive prefix-popcount array gives
rank in O(1): rank1(i) counts the 1 bits among the first i positions.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfBounds
from .util import popcount_u64


class RankSelectBits:
    # named before select was dropped; the benchmark's tracer hooks the name
    __slots__ = ("n", "_words", "_prefix")

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        self.n = len(bits)
        nwords = (self.n + 63) // 64 if self.n else 1
        padded = np.zeros(nwords * 64, dtype=np.uint8)
        padded[: self.n] = bits
        # bit i of the array is bit i % 64 of word i // 64: little-endian
        # bit order within bytes, and little-endian bytes within words
        self._words = np.packbits(padded, bitorder="little").view("<u8")
        counts = popcount_u64(self._words)
        self._prefix = np.zeros(nwords + 1, dtype=np.int64)
        np.cumsum(counts, out=self._prefix[1:])

    def rank1(self, i: int) -> int:
        """Number of 1 bits among positions 1..i; rank1(0) == 0."""
        if not 0 <= i <= self.n:
            raise OutOfBounds(f"rank position {i} not in [0, {self.n}]")
        w, r = i >> 6, i & 63
        out = int(self._prefix[w])
        if r:
            out += ((int(self._words[w]) & ((1 << r) - 1))).bit_count()
        return out

    def measured_bits(self) -> int:
        return self._words.nbytes * 8 + self._prefix.nbytes * 8
