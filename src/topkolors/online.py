"""Incremental color reporting without a K fixed up front.

A stream wraps any index whose topk(a, b, k) returns a ColorList, as every
index of this package does, and yields the range's colors one at a time in
the same order a single big query would produce.
It holds one list from the index, starting at length 1, and only when a
pull runs past its end requests the next, of length 2 * len + 1, whose
prefix is the list already served.  The total of all k values requested
from the index stays within 8k+16 after k pulls, and a short answer from
the index marks the stream as final.

Over an index built on the sparse core (SparseTopK, OptimalTopK,
ChunkedTopK), a range the core scans at every k is scanned once, when the
stream opens: the core hands over every distinct rank of the range, at
most min(b - a + 1, sigma) of them, and each request converts only its new
ranks to (color, priority) pairs.  The requests are the same as on the
topk path, and elements_requested still counts the k of each, although the
index was scanned once.  Any other range or index asks topk per request.
"""

from __future__ import annotations

from .model import check_range
from .sparse import SparseTopK


class ColorStream:
    """Iterator of (color, priority) pairs, highest effective rank first.

    elements_requested totals the k arguments of every request, which is
    the work measure the 8k+16 guarantee is stated in: the k of each
    underlying topk call, or, on a range the sparse core scans once, the k
    of each request served from that scan's ranks.
    """

    def __init__(self, index, a: int, b: int):
        self._a, self._b, _ = check_range(index.n, a, b)
        self._index = index
        self.elements_requested = 0
        # every rank of a range the sparse core scans at every k, else None
        self._ranks = (index.core.scanned_ranks(self._a, self._b)
                       if isinstance(index, SparseTopK) else None)
        # the entries served and to serve, and their count, read on every pull
        self._entries = ()
        self._request(1)
        self._served = 0

    def _request(self, k: int):
        """Extend the entries to the range's top k, or to all of its colors
        when it has fewer, which marks the stream as final."""
        self.elements_requested += k
        if self._ranks is None:
            self._entries = self._index.topk(self._a, self._b, k).entries
        else:
            held = self._entries
            new = self._index.arr.list_from_ranks(self._ranks[len(held) : k])
            self._entries = held + new.entries
        self._len = len(self._entries)
        self._no_more = self._len < k

    def __iter__(self):
        return self

    def __next__(self):
        i = self._served
        if i == self._len and not self._no_more:
            self._request(2 * i + 1)
        if i == self._len:
            raise StopIteration
        self._served = i + 1
        return self._entries[i]


def open_stream(index, a: int, b: int) -> ColorStream:
    return ColorStream(index, a, b)
