"""Incremental color reporting without a K fixed up front.

A stream wraps any index whose topk(a, b, k) returns a ColorList, as every
index of this package does, and yields the range's colors one at a time in
the same order a single big query would produce.
It holds one list from the index, starting at length 1, and only when a
pull runs past its end requests the next, of length 2 * len + 1, whose
prefix is the list already served.  The total of all k values requested
from the index stays within 8k+16 after k pulls, and a short answer from
the index marks the stream as final.
"""

from __future__ import annotations

from .model import check_range


class ColorStream:
    """Iterator of (color, priority) pairs, highest effective rank first.

    elements_requested totals the k arguments of every underlying topk
    call, which is the work measure the 8k+16 guarantee is stated in.
    """

    def __init__(self, index, a: int, b: int):
        self._a, self._b, _ = check_range(index.n, a, b)
        self._index = index
        self.elements_requested = 0
        self._no_more = False
        # the current list's entries and their count, read on every pull
        self._entries = self._request(1)
        self._served = 0

    def _request(self, k: int):
        self.elements_requested += k
        got = self._index.topk(self._a, self._b, k).entries
        self._len = len(got)
        if self._len < k:
            self._no_more = True
        return got

    def __iter__(self):
        return self

    def __next__(self):
        i = self._served
        if i == self._len and not self._no_more:
            self._entries = self._request(2 * i + 1)
        if i == self._len:
            raise StopIteration
        self._served = i + 1
        return self._entries[i]


def open_stream(index, a: int, b: int) -> ColorStream:
    return ColorStream(index, a, b)
