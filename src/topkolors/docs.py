"""Document retrieval on top of the top-K color indexes.

A collection of documents is concatenated with a 0 separator byte after
each one; a suffix array over that text turns "documents matching pattern
P" into a contiguous range of suffix slots.  Coloring slot i with the
document owning suffix SA[i] (separator-led suffixes get a dummy color
that sorts below every document) makes the weighted-document queries exact
top-K color queries:

  ranked_list(P, k)   k highest-weight documents containing P
  t_mine(P, t, k)     k highest-weight documents with at least t occurrences

The suffix array is built by prefix doubling (build_suffix_array): symbol
ids from a table of the bytes present, one sort of the suffixes by their
first h symbols, then rounds that re-sort only the groups still tied, each
suffix ranked by the order position where its group starts (Larsson and
Sadakane, "Faster suffix sorting", TCS 2007).  The slot colors are one
gather through it of the owner of every text position.

ranked_list(P, k) is t_mine(P, 1, k), and every t goes to the index's one
sparse core on its fitted level set (the core OptimalTopK builds), for the
k highest ranks that occur at least t times in P's slot range [a, b]
(_SparseCore.topk_ranks with t).  At t = 1 the core scans or descends by
its width rule; at t >= 2 it counts the range's own ranks, a slot per
occurrence, so its answer is exact at any width.  A t above the longest
document has no answer.

The paper answers t >= 2 from per-t anchor arrays (every t-th
occurrence slot of each document, indexed for top-K); this index builds
no per-t structure.  A sweep of both paths on the docs benchmark corpus,
at suffix widths up to 52k (BENCH_tmine_scan.json), found the scan ten
times faster in the median and its summed time within 2 % of the cheaper
path's, so the anchors were not worth their space.

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
    InvalidRange,
    OverlappingRanges,
    SeparatorInContent,
)
from .model import (
    INT64_MAX,
    INT64_MIN,
    ColorArray,
    ColorList,
    check_range,
    read_table,
)
from .online import open_stream
from .sparse import _SparseCore, fitted_levels
from .util import nbits

SEPARATOR = 0


def build_suffix_array(text: bytes) -> np.ndarray:
    """Suffix array by prefix doubling: start offsets in lex order, int32
    when len(text) < 2**31.

    Symbol ids come from a 256-entry table of the bytes present, 1 for
    the smallest.  The first key packs the first h symbols of each suffix
    into one int64 (ids in `bits` bits each, 0 past the end), and one
    argsort of it sorts the suffixes by their first h symbols.  A suffix's
    rank is the order position where its group of equal prefixes starts.
    Each later round re-sorts only the suffixes of groups of two or more,
    by (group start, rank of suffix i + k), in place, which doubles the
    prefix k the ranks tell apart; a group of one is final and drops out.
    A tied suffix has at least k symbols, so i + k <= n, and rank[n] = -1
    sorts a suffix that ends there first.
    """
    n = len(text)
    dtype = np.int32 if n < 2**31 else np.int64
    if n == 0:
        return np.empty(0, dtype=dtype)
    raw = np.frombuffer(text, dtype=np.uint8)
    present = np.zeros(256, dtype=bool)
    present[raw] = True
    ids = np.cumsum(present, dtype=np.uint16)
    bits = int(ids[-1]).bit_length()
    h = 63 // bits
    padded = np.zeros(n + h, dtype=np.uint16)
    np.take(ids, raw, out=padded[:n])
    key = np.zeros(n, dtype=np.int64)
    for j in range(h):
        key <<= bits
        key |= padded[j : j + n]
    del padded
    order = np.argsort(key).astype(dtype)
    key = key[order]
    rank = np.empty(n + 1, dtype=dtype)
    rank[n] = -1
    # pos: the order positions still being sorted, sfx: their suffixes
    pos = np.arange(n, dtype=dtype)
    sfx = order
    k = h
    while True:
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        rank[sfx] = np.maximum.accumulate(np.where(first, pos, 0))
        tied = ~first
        tied[:-1] |= tied[1:]
        pos = pos[tied]
        if len(pos) == 0:
            return order
        sfx = sfx[tied]
        key = rank[sfx].astype(np.int64) * (n + 1) + (rank[sfx + k] + 1)
        perm = np.argsort(key)
        key = key[perm]
        sfx = sfx[perm]
        order[pos] = sfx
        k *= 2


def naive_suffix_array(text: bytes) -> list[int]:
    return sorted(range(len(text)), key=lambda i: text[i:])


def _as_bytes(doc) -> bytes:
    """doc as bytes: a str encoded as UTF-8, a buffer of single-byte items,
    or a sequence of byte values, read by value.  Anything else is a
    BadParameter: an integer above all, which bytes() would read as a
    length of zero bytes, and a buffer of wider items (an int64 or float
    array), which bytes() would read as raw memory."""
    if isinstance(doc, bytes):
        return doc
    if isinstance(doc, str):
        try:
            return doc.encode()
        except UnicodeEncodeError as exc:
            raise BadParameter(f"text has no UTF-8 encoding: {exc}") from None
    if not isinstance(doc, numbers.Integral):
        try:
            with memoryview(doc) as view:
                if view.format in ("B", "b", "c"):
                    return view.tobytes()
        except TypeError:
            pass
        try:
            return bytes(iter(doc))
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

    @property
    def n(self) -> int:
        return len(self.text)

    def count_occurrences(self, doc_index: int, pattern: bytes) -> int:
        """Direct-scan occurrence count, used as a test oracle."""
        return len(_starts(self.docs[doc_index], _as_bytes(pattern)))


def _starts(d: bytes, p: bytes) -> list[int]:
    """Every offset where p occurs in d, overlapping ones too."""
    out = []
    i = d.find(p)
    while i >= 0:
        out.append(i)
        i = d.find(p, i + 1)
    return out


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

    weights[j] is document j's integer priority (bigger means more
    relevant), from a mapping or a sequence read by index; ties between
    equally weighted documents break toward the larger document index.  A
    missing weight raises MissingPriority, and weights that cannot be
    indexed or one that is not an integer (numpy's are) BadParameter.
    t_mine answers every occurrence threshold t >= 1 from the one core.
    """

    def __init__(self, collection: DocumentCollection, weights):
        self.collection = collection
        s = collection.num_docs
        w = read_table(weights, s, "document", "weight")
        self.weights = dict(enumerate(w))
        dummy_prio = min(w) - 1
        # the separator dummy sorts one below the smallest weight
        if dummy_prio < INT64_MIN or max(w) > INT64_MAX:
            raise BadParameter(
                f"weights must lie in [{INT64_MIN + 1}, {INT64_MAX}]"
            )
        self.suffix_array = build_suffix_array(collection.text)
        # the owner of every text position, the dummy s on separators
        lengths = [len(d) + 1 for d in collection.docs]
        owner = np.repeat(np.arange(s, dtype=np.int32), lengths)
        owner[np.cumsum(lengths) - 1] = s
        colors = owner[self.suffix_array]
        arr = self.arr = ColorArray(
            colors, np.array(w + [dummy_prio], dtype=np.int64))
        self.core = _SparseCore(arr, fitted_levels(arr.n, arr.sigma))

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
        return self.t_mine(pattern, 1, k)

    def t_mine(self, pattern, t: int, k: int) -> ColorList:
        """The k highest-weight documents with >= t pattern occurrences."""
        k = _positive("k", k)
        t = _positive("t", t)
        p = _check_pattern(pattern)
        if t > self.collection.max_doc_len:
            return ColorList([])
        rng = self.pattern_range(p)
        if rng is None:
            return ColorList([])
        return self.arr.list_from_ranks(self.core.topk_ranks(*rng, k, t))

    def measured_bits(self) -> int:
        """Bits of every array the index holds, each counted once; the
        collection it was built over is the caller's."""
        return (nbits(self.suffix_array) + _color_array_bits(self.arr)
                + self.core.measured_bits())


def _color_array_bits(arr: ColorArray) -> int:
    return nbits(arr.ranks, arr.priority_of, arr.rank_of, arr.color_of_rank)


def naive_ranked_list(collection, weights, pattern, k):
    """Direct-scan reference for ranked_list."""
    return naive_t_mine(collection, weights, pattern, 1, k)


def naive_t_mine(collection, weights, pattern, t, k):
    """Direct-scan reference for t_mine."""
    p = _as_bytes(pattern)
    hits = [(j, int(weights[j])) for j in range(collection.num_docs)
            if collection.count_occurrences(j, p) >= t]
    return sorted(hits, key=lambda e: (e[1], e[0]), reverse=True)[:k]


def relevance_weights(collection, pattern, metric: str = "freq"):
    """Pattern-derived document weights for experiment fixtures.

    freq: occurrence count.  mindist: how tightly the two closest
    occurrences sit together, scored as max_doc_len + 1 - gap so that
    closer pairs weigh more; documents with fewer than two occurrences
    score 0.  An empty pattern, or one holding the separator, is
    refused as every pattern query refuses it.
    """
    if metric not in ("freq", "mindist"):
        raise BadParameter(f"unknown metric {metric!r}")
    p = _check_pattern(pattern)
    out = {}
    for j, d in enumerate(collection.docs):
        starts = _starts(d, p)
        if metric == "freq":
            out[j] = len(starts)
        else:
            gaps = [y - x for x, y in zip(starts, starts[1:])]
            out[j] = collection.max_doc_len + 1 - min(gaps) if gaps else 0
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
        try:
            self.ranges = [check_range(index.n, a, b)[:2] for a, b in ranges]
        except (TypeError, ValueError):  # not an iterable of pairs
            raise InvalidRange("ranges must be (a, b) pairs") from None
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
