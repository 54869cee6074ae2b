"""Space-reduced top-K index: fixed-length chunks plus a chunk summary.

The array splits into chunks whose length depends on how the alphabet
compares to the array: sigma^3 when sigma^2 >= floor(log2 N) (each chunk
then carries an f=2 sparse index over locally remapped ranks), otherwise
sigma^2 * floor(log2 N) (chunks subdivide into pieces of ceil(log_sigma N)
positions packed into machine words, answered via a memoized table that is
cleared once it holds _WORD_TABLE_CAP entries, with a per-chunk piece
summary for the spans between pieces).

Across chunks, a transposed summary stores sigma slots per chunk holding
rank+1 for every color present in that chunk and 0 otherwise; a sparse index
over the summary answers "top colors among whole chunks in one probe": ask
for k+1 values and drop the 0 dummy if it shows up.  A query touching several
chunks combines two partial-chunk answers with one summary answer; a query
inside one chunk is delegated whole.

Rank bookkeeping: chunk-local structures work in remapped local rank space
and convert back through their chunk's rank table, so reported colors always
carry original ids and priorities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter
from .model import ColorArray, ColorList, QuerySpec, check_range
from .sparse import _SparseCore
from .util import ceil_log2, floor_log2, nbits


# entries the memo table of _word_topk may hold before it starts over; one
# round of the low-sigma benchmark queries leaves about a third of this
_WORD_TABLE_CAP = 1 << 14


@dataclass(frozen=True)
class ChunkedParams:
    """chunk_len_override pins the chunk length for tests."""

    chunk_len_override: int | None = None


def _merge_ranks(parts: list, k: int) -> list[int]:
    """First k distinct values of up to three descending rank lists."""
    out: list[int] = []
    seen = set()
    idx = [0] * len(parts)
    while len(out) < k:
        best = -1
        which = -1
        for t, part in enumerate(parts):
            if idx[t] < len(part):
                v = int(part[idx[t]])
                if v > best:
                    best, which = v, t
        if which < 0:
            break
        idx[which] += 1
        if best not in seen:
            seen.add(best)
            out.append(best)
    return out


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


class _RecursiveChunk:
    """One large-alphabet chunk: remapped ranks under a sparse core."""

    def __init__(self, seg_ranks: np.ndarray):
        uniq = np.unique(seg_ranks)
        self.glob_of_loc = uniq.astype(np.int32)
        loc = np.searchsorted(uniq, seg_ranks).astype(np.int32)
        self.core = _SparseCore(loc, len(uniq), 2)

    def topk_glob(self, a: int, b: int, k: int) -> list[int]:
        loc = self.core.topk_ranks(a, b, k)
        return [int(self.glob_of_loc[r]) for r in loc]

    def measured_bits(self) -> int:
        return nbits(self.glob_of_loc) + self.core.measured_bits()


class _PackedChunk:
    """One small-alphabet chunk: word-packed pieces plus a piece summary."""

    def __init__(self, seg_ranks: np.ndarray, sigma: int, p_len: int,
                 bits: int, table: dict, key_ok: bool):
        self.n = len(seg_ranks)
        self.sigma = sigma
        self.p_len = p_len
        self.bits = bits
        self.table = table
        self.key_ok = key_ok
        npieces = -(-self.n // p_len)
        self.words = [0] * npieces
        full = self.n // p_len
        if full and bits * p_len <= 63:
            mat = seg_ranks[: full * p_len].astype(np.uint64)
            mat = mat.reshape(full, p_len)
            shifts = (np.arange(p_len, dtype=np.uint64) * np.uint64(bits))
            packed = (mat << shifts).sum(axis=1, dtype=np.uint64)
            self.words[:full] = [int(w) for w in packed]
        else:
            for pi in range(full):
                w = 0
                for t in range(p_len):
                    w |= int(seg_ranks[pi * p_len + t]) << (t * bits)
                self.words[pi] = w
        if npieces > full:
            w = 0
            for t, v in enumerate(seg_ranks[full * p_len :]):
                w |= int(v) << (t * bits)
            self.words[full] = w
        # sigma slots per piece: rank+1 when present, 0 otherwise
        summary = np.zeros(npieces * sigma, dtype=np.int32)
        piece_of = np.arange(self.n) // p_len
        summary[piece_of * sigma + seg_ranks] = seg_ranks + 1
        self.summary = summary
        self.summary_core = _SparseCore(summary, sigma + 1, 2)

    def _piece_len(self, pi: int) -> int:
        return min(self.p_len, self.n - pi * self.p_len)

    def _piece_topk(self, pi: int, lo: int, hi: int) -> tuple:
        return _word_topk(self.table, self.bits, self.words[pi], lo, hi,
                          self.key_ok)

    def _summary_topk(self, p1: int, p2: int, k: int) -> list[int]:
        """Global ranks over whole pieces p1..p2 inclusive."""
        got = self.summary_core.topk_ranks(
            p1 * self.sigma + 1, (p2 + 1) * self.sigma, k + 1
        )
        return [v - 1 for v in got if v > 0][:k]

    def topk_glob(self, a: int, b: int, k: int) -> list[int]:
        x, y = a - 1, b
        pi, pj = x // self.p_len, (y - 1) // self.p_len
        if pi == pj:
            base = pi * self.p_len
            return list(self._piece_topk(pi, x - base, y - base))[:k]
        parts = [
            self._piece_topk(pi, x - pi * self.p_len, self._piece_len(pi)),
            self._piece_topk(pj, 0, y - pj * self.p_len),
        ]
        if pj - pi > 1:
            parts.append(self._summary_topk(pi + 1, pj - 1, k))
        return _merge_ranks(parts, k)

    def measured_bits(self) -> int:
        word_bits = sum(
            self._piece_len(pi) * self.bits for pi in range(len(self.words))
        )
        return word_bits + nbits(self.summary) + self.summary_core.measured_bits()


class ChunkedTopK:
    def __init__(self, arr: ColorArray, params: ChunkedParams | None = None):
        self.arr = arr
        self.n = arr.n
        params = params or ChunkedParams()
        self.chunk_len_override = params.chunk_len_override
        n, sigma = arr.n, arr.sigma
        self.last_path = None
        if sigma == 1:
            self.regime = "trivial"
            self.chunk_len = n
            self._chunks = []
            self._summary = None
            self._summary_core = None
            return
        log_n = max(1, floor_log2(n))
        if sigma * sigma >= log_n:
            self.regime = "recursive"
            chunk_len = sigma ** 3
        else:
            self.regime = "packed"
            chunk_len = sigma * sigma * log_n
        if params.chunk_len_override is not None:
            chunk_len = params.chunk_len_override
            if chunk_len < 1:
                raise BadParameter("chunk length must be >= 1")
        self.chunk_len = min(chunk_len, n)
        ranks = arr.ranks()
        self._word_table: dict = {}
        if self.regime == "packed":
            p_len = 2
            while sigma ** p_len < n:
                p_len += 1
            p_len = max(2, p_len)
            self._p_len = p_len
            bits = max(1, ceil_log2(sigma))
            key_ok = bits * p_len <= 128
            self._chunks = [
                _PackedChunk(ranks[j : j + self.chunk_len], sigma, p_len,
                             bits, self._word_table, key_ok)
                for j in range(0, n, self.chunk_len)
            ]
        else:
            self._chunks = [
                _RecursiveChunk(ranks[j : j + self.chunk_len])
                for j in range(0, n, self.chunk_len)
            ]
        nchunks = len(self._chunks)
        summary = np.zeros(nchunks * sigma, dtype=np.int32)
        chunk_of = np.arange(n) // self.chunk_len
        summary[chunk_of * sigma + ranks] = ranks + 1
        self._summary = summary
        self._summary_core = _SparseCore(summary, sigma + 1, 2)

    @property
    def num_chunks(self) -> int:
        return len(self._chunks)

    def _middle_ranks(self, c1: int, c2: int, k: int) -> list[int]:
        """Global ranks over whole chunks c1..c2 inclusive via the summary.

        Asks for one extra entry so the absent-color dummy can be dropped
        without losing a real answer.
        """
        sigma = self.arr.sigma
        got = self._summary_core.topk_ranks(
            c1 * sigma + 1, (c2 + 1) * sigma, k + 1
        )
        return [v - 1 for v in got if v > 0][:k]

    def topk_ranks(self, a: int, b: int, k: int) -> list[int]:
        ci, cj = (a - 1) // self.chunk_len, (b - 1) // self.chunk_len
        base_i = ci * self.chunk_len
        if ci == cj:
            self.last_path = "chunk"
            return self._chunks[ci].topk_glob(a - base_i, b - base_i, k)
        self.last_path = "split"
        base_j = cj * self.chunk_len
        parts = [
            self._chunks[ci].topk_glob(a - base_i, self._chunk_n(ci), k),
            self._chunks[cj].topk_glob(1, b - base_j, k),
        ]
        if cj - ci > 1:
            parts.append(self._middle_ranks(ci + 1, cj - 1, k))
        return _merge_ranks(parts, k)

    def _chunk_n(self, ci: int) -> int:
        return min(self.chunk_len, self.n - ci * self.chunk_len)

    def topk(self, a: int, b: int, k: int) -> ColorList:
        check_range(self.n, a, b, k)
        if self.arr.sigma == 1:
            self.last_path = "trivial"
            return self.arr.list_from_ranks([0])
        return self.arr.list_from_ranks(self.topk_ranks(a, b, k))

    def query(self, q: QuerySpec) -> ColorList:
        return self.topk(q.a, q.b, q.k)

    def measured_bits(self) -> int:
        total = sum(c.measured_bits() for c in self._chunks)
        if self._summary is not None:
            total += nbits(self._summary) + self._summary_core.measured_bits()
        return total
