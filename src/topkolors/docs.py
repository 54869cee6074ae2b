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
t >= 2, t_mine uses per-t anchor arrays: every t-th occurrence slot of each
document, in slot order.  Any document with t or more occurrences inside a
slot range must place an anchor there (t consecutive positions of its
occurrence list cover a full residue class), so streaming the anchor
index's colors and confirming each candidate's exact count with two
bisections over its occurrence list reports no false positives and misses
nothing.  Counts are exact, so the confirmation also filters the anchors
that a sub-t document happened to land in the range.

RangeHeapMerger combines the streams of several pairwise disjoint ranges
into one descending (priority, color) order without de-duplicating across
ranges: each range reports its own colors, ties break toward the earlier
range in the given order.
"""

from __future__ import annotations

import bisect
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
    return doc.encode() if isinstance(doc, str) else bytes(doc)


class DocumentCollection:
    """Non-empty documents joined with a separator byte after each."""

    def __init__(self, docs):
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


def _slot_bounds(slots: np.ndarray, a: int, b: int):
    """0-based half-open bounds of the sorted slots inside suffix slots
    [a, b] (1-based): one searchsorted with needles of the slots' dtype, so
    numpy does not cast the haystack."""
    lo, hi = slots.searchsorted(np.array((a - 1, b), dtype=slots.dtype))
    return int(lo), int(hi)


class _AnchorIndex:
    """Every t-th occurrence slot per document, indexed for top-K.

    occ holds each slot's 0-based occurrence index inside its document, in
    the slot arrays' dtype, and colors each slot's document, num_docs for
    separator slots; prio is the priority of every document id.
    """

    def __init__(self, t, occ, colors, num_docs, prio):
        slots = np.flatnonzero((occ % t == t - 1) & (colors < num_docs))
        if not len(slots):
            self.slots = None
            return
        self.slots = slots.astype(occ.dtype)
        uniq, loc = np.unique(colors[slots], return_inverse=True)
        self.doc_of_loc = uniq
        self.index = OptimalTopK(ColorArray(loc.astype(np.int32), prio[uniq]))

    def slot_range(self, a: int, b: int):
        """Anchor-array range (1-based) covering suffix slots [a, b]."""
        lo, hi = _slot_bounds(self.slots, a, b)
        return lo + 1, hi


class DocumentIndex:
    """Suffix-backed weighted retrieval over a document collection.

    weights maps document index to an integer priority (bigger means more
    relevant); ties between equally weighted documents break toward the
    larger document index.  A missing weight raises MissingPriority, and one
    that is not an integer BadParameter.  t_values lists the occurrence
    thresholds t_mine accepts; the default is every power of two up to the
    longest document.
    """

    def __init__(self, collection: DocumentCollection, weights,
                 t_values=None):
        self.collection = collection
        s = collection.num_docs
        self.weights = {}
        for j in range(s):
            try:
                self.weights[j] = int(weights[j])
            except LookupError as exc:
                raise MissingPriority(f"document {j} has no weight") from exc
            except (TypeError, ValueError) as exc:
                raise BadParameter(
                    f"weight of document {j} is not an integer: {exc}") from exc
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
        # slots of each document in slot order: one stable sort by color
        slot_dtype = self.suffix_array.dtype
        by_color = np.argsort(colors, kind="stable").astype(slot_dtype)
        counts = np.bincount(colors, minlength=s + 1)
        ends = np.cumsum(counts)
        self._occ_slots = np.split(by_color, ends[:s])[:s]
        # each slot's occurrence index inside its document; t = 1 is served
        # by the main index, so it gets no anchor set
        occ = np.empty(len(colors), dtype=slot_dtype)
        starts = np.repeat(ends - counts, counts)
        occ[by_color] = np.arange(len(colors)) - starts
        self._anchors = {
            t: _AnchorIndex(t, occ, colors, s, prio)
            for t in self.t_values if t > 1
        }

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
        """Occurrences of pattern in one document via two bisections."""
        if not 0 <= doc_index < self.collection.num_docs:
            raise BadParameter(f"no document {doc_index}")
        rng = self.pattern_range(pattern)
        if rng is None:
            return 0
        return self._count_in_slots(doc_index, *rng)

    def _count_in_slots(self, doc_index: int, a: int, b: int) -> int:
        lo, hi = _slot_bounds(self._occ_slots[doc_index], a, b)
        return hi - lo

    def ranked_list(self, pattern, k: int) -> ColorList:
        """The k highest-weight documents containing the pattern."""
        if k < 1:
            raise BadParameter(f"k must be >= 1, got {k}")
        rng = self.pattern_range(pattern)
        if rng is None:
            return ColorList([])
        return self.index.topk(rng[0], rng[1], k)

    def t_mine(self, pattern, t: int, k: int) -> ColorList:
        """The k highest-weight documents with >= t pattern occurrences."""
        if k < 1:
            raise BadParameter(f"k must be >= 1, got {k}")
        if t < 1:
            raise BadParameter(f"t must be >= 1, got {t}")
        p = _check_pattern(pattern)
        if t > self.collection.max_doc_len:
            return ColorList([])
        if t not in self.t_values:
            raise UnsupportedT(
                f"t={t} not built; available: {self.t_values}"
            )
        if t == 1:
            return self.ranked_list(p, k)
        rng = self.pattern_range(p)
        if rng is None:
            return ColorList([])
        anchor = self._anchors[t]
        if anchor.slots is None:
            return ColorList([])
        aa, bb = anchor.slot_range(*rng)
        if aa > bb:
            return ColorList([])
        out = []
        for c, w in open_stream(anchor.index, aa, bb):
            doc = int(anchor.doc_of_loc[c])
            if self._count_in_slots(doc, *rng) >= t:
                out.append((doc, w))
                if len(out) == k:
                    break
        return ColorList(out)

    def measured_bits(self) -> int:
        """Bits of every array the index holds, each counted once; the
        collection it was built over is the caller's."""
        total = nbits(self.suffix_array, *self._occ_slots)
        total += _color_array_bits(self.arr) + self.index.measured_bits()
        for anchor in self._anchors.values():
            if anchor.slots is not None:
                total += nbits(anchor.slots, anchor.doc_of_loc)
                total += _color_array_bits(anchor.index.arr)
                total += anchor.index.measured_bits()
        return total


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
        self.ranges = [(int(a), int(b)) for a, b in ranges]
        for a, b in self.ranges:
            check_range(index.n, a, b)
        ordered = sorted(self.ranges)
        for (_, b1), (a2, _) in zip(ordered, ordered[1:]):
            if b1 >= a2:
                raise OverlappingRanges(
                    f"ranges overlap around positions {a2}..{b1}"
                )

    def topk(self, k: int) -> list[tuple[int, int]]:
        if k < 1:
            raise BadParameter(f"k must be >= 1, got {k}")
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
