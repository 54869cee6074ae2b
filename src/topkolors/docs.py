"""Document retrieval on top of the top-K color indexes.

A collection of documents is concatenated with a 0 separator byte after
each one; a suffix array over that text turns "documents matching pattern
P" into a contiguous range of suffix slots.  Coloring slot i with the
document owning suffix SA[i] (separator-led suffixes get a dummy color
that sorts below every document) makes the weighted-document queries exact
top-K color queries:

  ranked_list(P, k)   k highest-weight documents containing P
  t_mine(P, t, k)     k highest-weight documents with at least t occurrences

t_mine(P, 1, k) is ranked_list(P, k), so the main index serves it.  For
t >= 2, t_mine asks the main core for the k highest ranks that occur at
least t times in P's slot range [a, b] (_SparseCore.topk_ranks with t): it
counts the range's own ranks, a slot per occurrence, so its answer is
exact at any width.

The paper answers t >= 2 from per-t anchor arrays (every t-th
occurrence slot of each document, indexed for top-K); this index builds
no per-t structure.  A sweep of both paths on the docs benchmark corpus,
at suffix widths up to 52k (BENCH_tmine_scan.json), found the scan ten
times faster in the median and its summed time within 2 % of the cheaper
path's, so the anchors were not worth their space.  t_values names the
thresholds t_mine accepts.

RangeHeapMerger combines the streams of several pairwise disjoint ranges
into one descending (priority, color) order without de-duplicating across
ranges: each range reports its own colors, ties break toward the earlier
range in the given order.
"""

from __future__ import annotations

import bisect
import numbers
import operator
from heapq import heappop, heappush

import numpy as np

from .errors import (
    BadParameter,
    EmptyArray,
    MissingPriority,
    OverlappingRanges,
    SeparatorInContent,
    UnsupportedT,
)
from .model import INT64_MAX, INT64_MIN, ColorArray, ColorList, check_range
from .online import open_stream
from .optimal import OptimalTopK
from .util import nbits

SEPARATOR = 0


def build_suffix_array(text: bytes) -> np.ndarray:
    """Suffix array by prefix doubling: start offsets in lex order, int32
    when len(text) < 2**31.

    The first key packs the first h symbols of each suffix into one int64
    (symbol ids + 1 in `bits` bits each, 0 past the end); each round then
    sorts one combined key, rank[i] * (n + 1) + rank[i + k] + 1, which
    doubles the prefix the ranks tell apart.  The last round's keys are all
    distinct, so the sort needs no stability.
    """
    n = len(text)
    dtype = np.int32 if n < 2**31 else np.int64
    if n == 0:
        return np.empty(0, dtype=dtype)
    _, sym = np.unique(np.frombuffer(text, dtype=np.uint8),
                       return_inverse=True)
    bits = (int(sym.max()) + 1).bit_length()
    h = 63 // bits
    padded = np.zeros(n + h, dtype=np.int64)
    padded[:n] = sym + 1
    key = np.zeros(n, dtype=np.int64)
    for j in range(h):
        key <<= bits
        key |= padded[j : j + n]
    k = h
    rank = np.empty(n, dtype=np.int64)
    step = np.zeros(n, dtype=np.int64)
    while True:
        order = np.argsort(key)
        ordered = key[order]
        np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
        rank[order] = np.cumsum(step)
        if int(rank[order[-1]]) == n - 1:
            return order.astype(dtype)
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        k *= 2


def naive_suffix_array(text: bytes) -> list[int]:
    return sorted(range(len(text)), key=lambda i: text[i:])


def _as_bytes(doc) -> bytes:
    """doc as bytes: a str encoded as UTF-8, a bytes-like object, or a
    sequence of byte values.  Anything else is a BadParameter, an integer
    above all, which bytes() would read as a length of zero bytes."""
    if isinstance(doc, bytes):
        return doc
    if isinstance(doc, str):
        try:
            return doc.encode()
        except UnicodeEncodeError as exc:
            raise BadParameter(f"text has no UTF-8 encoding: {exc}") from None
    if not isinstance(doc, numbers.Integral):
        try:
            return bytes(doc)
        except (TypeError, ValueError):
            pass
    raise BadParameter(
        f"expected str, bytes or byte values, got {type(doc).__name__}"
    )


class DocumentCollection:
    """Non-empty documents joined with a separator byte after each."""

    def __init__(self, docs):
        # a lone text would otherwise be read as one document per item
        if isinstance(docs, (str, bytes, bytearray, memoryview)):
            raise BadParameter("expected a collection of documents, got one "
                               f"{type(docs).__name__}")
        try:
            docs = iter(docs)
        except TypeError:
            raise BadParameter("expected a collection of documents, got "
                               f"{type(docs).__name__}") from None
        self.docs = [_as_bytes(d) for d in docs]
        if not self.docs:
            raise EmptyArray("collection needs at least one document")
        for j, d in enumerate(self.docs):
            if not d:
                raise EmptyArray(f"document {j} is empty")
            if SEPARATOR in d:
                raise SeparatorInContent(
                    f"document {j} contains the separator byte"
                )
        self.text = b"".join(d + bytes([SEPARATOR]) for d in self.docs)
        self.num_docs = len(self.docs)
        self.max_doc_len = max(len(d) for d in self.docs)
        self._ends = np.cumsum([len(d) + 1 for d in self.docs])

    @property
    def n(self) -> int:
        return len(self.text)

    def count_occurrences(self, doc_index: int, pattern: bytes) -> int:
        """Direct-scan occurrence count, used as a test oracle."""
        d = self.docs[doc_index]
        p = _as_bytes(pattern)
        count = start = 0
        while True:
            i = d.find(p, start)
            if i < 0:
                return count
            count += 1
            start = i + 1


def _check_pattern(pattern) -> bytes:
    p = _as_bytes(pattern)
    if not p:
        raise BadParameter("pattern must be non-empty")
    if SEPARATOR in p:
        raise SeparatorInContent("pattern contains the separator byte")
    return p


def _integer(name: str, v) -> int:
    """v as an int (numpy integers too), or BadParameter."""
    try:
        return operator.index(v)
    except TypeError:
        raise BadParameter(f"{name} must be an integer, got {v!r}") from None


def _positive(name: str, v) -> int:
    """v as an int, or BadParameter unless it is an integer >= 1."""
    v = _integer(name, v)
    if v < 1:
        raise BadParameter(f"{name} must be >= 1, got {v}")
    return v


class DocumentIndex:
    """Suffix-backed weighted retrieval over a document collection.

    weights maps document index to an integer priority (bigger means more
    relevant); ties between equally weighted documents break toward the
    larger document index.  A missing weight raises MissingPriority, and one
    that is not an integer (numpy's are) BadParameter.  t_values lists the
    occurrence thresholds t_mine accepts; the default is every power of two
    up to the longest document.  t_mine raises UnsupportedT for a t that is
    not in t_values.
    """

    def __init__(self, collection: DocumentCollection, weights,
                 t_values=None):
        self.collection = collection
        s = collection.num_docs
        self.weights = {}
        for j in range(s):
            try:
                w = weights[j]
            except LookupError as exc:
                raise MissingPriority(f"document {j} has no weight") from exc
            self.weights[j] = _integer(f"weight of document {j}", w)
        dummy_prio = min(self.weights.values()) - 1
        # the separator dummy sorts one below the smallest weight
        if dummy_prio < INT64_MIN or max(self.weights.values()) > INT64_MAX:
            raise BadParameter(
                f"weights must lie in [{INT64_MIN + 1}, {INT64_MAX}]"
            )
        if t_values is None:
            # every power of two up to the longest document
            t_values = [1 << i
                        for i in range(collection.max_doc_len.bit_length())]
        try:
            self.t_values = sorted({operator.index(t) for t in t_values})
        except TypeError as exc:
            raise BadParameter(f"thresholds must be integers: {exc}") from None
        if self.t_values and self.t_values[0] < 1:
            raise BadParameter(f"threshold {self.t_values[0]} must be >= 1")
        self.suffix_array = build_suffix_array(collection.text)
        slot_pos = self.suffix_array
        text_bytes = np.frombuffer(collection.text, dtype=np.uint8)
        is_sep = text_bytes[slot_pos] == SEPARATOR
        owners = np.searchsorted(collection._ends, slot_pos, side="right")
        colors = np.where(is_sep, s, owners).astype(np.int32)
        prio = np.asarray(
            [self.weights[j] for j in range(s)] + [dummy_prio],
            dtype=np.int64,
        )
        self.arr = ColorArray(colors, prio)
        self.index = OptimalTopK(self.arr)

    @property
    def n(self) -> int:
        return self.collection.n

    def pattern_range(self, pattern):
        """Suffix slots (1-based inclusive) whose suffixes start with the
        pattern, or None when it occurs nowhere."""
        p = _check_pattern(pattern)
        text = self.collection.text
        m = len(p)
        # a view, not a copy: its items come out as Python ints, which
        # slice the text faster than numpy scalars do
        sa = memoryview(self.suffix_array)
        lo = bisect.bisect_left(sa, p, key=lambda i: text[i : i + m])
        hi = bisect.bisect_right(sa, p, key=lambda i: text[i : i + m])
        if lo == hi:
            return None
        return lo + 1, hi

    def occurrence_count(self, doc_index: int, pattern) -> int:
        """Occurrences of pattern in one document: the slots of the
        pattern's suffix range that hold the document's rank."""
        doc_index = _integer("document index", doc_index)
        if not 0 <= doc_index < self.collection.num_docs:
            raise BadParameter(f"no document {doc_index}")
        rng = self.pattern_range(pattern)
        if rng is None:
            return 0
        a, b = rng
        arr = self.arr
        return int(np.count_nonzero(arr.ranks[a - 1 : b]
                                    == arr.rank_of[doc_index]))

    def ranked_list(self, pattern, k: int) -> ColorList:
        """The k highest-weight documents containing the pattern."""
        k = _positive("k", k)
        rng = self.pattern_range(pattern)
        if rng is None:
            return ColorList([])
        return self.index.topk(rng[0], rng[1], k)

    def t_mine(self, pattern, t: int, k: int) -> ColorList:
        """The k highest-weight documents with >= t pattern occurrences."""
        k = _positive("k", k)
        t = _positive("t", t)
        p = _check_pattern(pattern)
        if t > self.collection.max_doc_len:
            return ColorList([])
        if t not in self.t_values:
            raise UnsupportedT(
                f"t={t} not in t_values {self.t_values}"
            )
        if t == 1:
            return self.ranked_list(p, k)
        rng = self.pattern_range(p)
        if rng is None:
            return ColorList([])
        return self.arr.list_from_ranks(self.index.core.topk_ranks(*rng, k, t))

    def measured_bits(self) -> int:
        """Bits of every array the index holds, each counted once; the
        collection it was built over is the caller's."""
        return (nbits(self.suffix_array) + _color_array_bits(self.arr)
                + self.index.measured_bits())


def _color_array_bits(arr: ColorArray) -> int:
    return nbits(arr.ranks, arr.priority_of, arr.rank_of, arr.color_of_rank)


def naive_ranked_list(collection, weights, pattern, k):
    """Direct-scan reference for ranked_list."""
    p = _as_bytes(pattern)
    hits = [
        (j, int(weights[j]))
        for j in range(collection.num_docs)
        if collection.count_occurrences(j, p) >= 1
    ]
    hits.sort(key=lambda e: (e[1], e[0]), reverse=True)
    return hits[:k]


def naive_t_mine(collection, weights, pattern, t, k):
    """Direct-scan reference for t_mine."""
    p = _as_bytes(pattern)
    hits = [
        (j, int(weights[j]))
        for j in range(collection.num_docs)
        if collection.count_occurrences(j, p) >= t
    ]
    hits.sort(key=lambda e: (e[1], e[0]), reverse=True)
    return hits[:k]


def relevance_weights(collection, pattern, metric: str = "freq"):
    """Pattern-derived document weights for experiment fixtures.

    freq: occurrence count.  mindist: how tightly the two closest
    occurrences sit together, scored as max_doc_len + 1 - gap so that
    closer pairs weigh more; documents with fewer than two occurrences
    score 0.
    """
    p = _as_bytes(pattern)
    out = {}
    for j, d in enumerate(collection.docs):
        starts = []
        i = d.find(p)
        while i >= 0:
            starts.append(i)
            i = d.find(p, i + 1)
        if metric == "freq":
            out[j] = len(starts)
        elif metric == "mindist":
            if len(starts) < 2:
                out[j] = 0
            else:
                gap = min(y - x for x, y in zip(starts, starts[1:]))
                out[j] = collection.max_doc_len + 1 - gap
        else:
            raise BadParameter(f"unknown metric {metric!r}")
    return out


class RangeHeapMerger:
    """Merged descending color stream over pairwise disjoint ranges.

    Every range contributes its own colors (no de-duplication across
    ranges); ties on (priority, color) resolve toward the earlier range.
    Only the k best range heads are seeded for a top-k pull: a range whose
    head already ranks below k other heads can never reach the output.
    """

    def __init__(self, index, ranges):
        self.index = index
        self.ranges = [check_range(index.n, a, b)[:2] for a, b in ranges]
        ordered = sorted(self.ranges)
        for (_, b1), (a2, _) in zip(ordered, ordered[1:]):
            if b1 >= a2:
                raise OverlappingRanges(
                    f"ranges overlap around positions {a2}..{b1}"
                )

    def topk(self, k: int) -> list[tuple[int, int]]:
        k = _positive("k", k)
        heads = []
        streams = {}
        for idx, (a, b) in enumerate(self.ranges):
            stream = open_stream(self.index, a, b)
            c, p = next(stream)
            streams[idx] = stream
            heads.append((-p, -c, idx))
        heads.sort()
        heap = heads[:k]
        out = []
        while heap and len(out) < k:
            negp, negc, idx = heappop(heap)
            out.append((-negc, -negp))
            nxt = next(streams[idx], None)
            if nxt is not None:
                heappush(heap, (-nxt[1], -nxt[0], idx))
        return out


def merge_ranges_topk(index, ranges, k: int) -> list[tuple[int, int]]:
    return RangeHeapMerger(index, ranges).topk(k)
