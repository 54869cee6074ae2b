"""Answer checks that share no code with the library under test.

Arrays are checked against a numpy scan of the query range, documents
against a direct scan that counts overlapping occurrences per document.
Every answer is a sequence of (id, priority) pairs that must be strictly
descending under (priority, id), hold each id once, and equal the scan.
"""

from __future__ import annotations

import numpy as np


def rank_order(priorities) -> np.ndarray:
    """Ids sorted by (priority, id) descending: equal priorities go to the
    larger id first."""
    prio = np.asarray(priorities, dtype=np.int64)
    return np.lexsort((np.arange(len(prio)), prio))[::-1]


def scan_topk(colors, priorities, order, a: int, b: int, k: int) -> tuple:
    """Top k distinct colors of colors[a..b] (1-based, inclusive)."""
    present = np.zeros(len(priorities), dtype=bool)
    present[colors[a - 1 : b]] = True
    top = order[present[order]][:k]
    return tuple((int(c), int(priorities[c])) for c in top)


def occurrences(text: np.ndarray, pattern: bytes) -> np.ndarray:
    """Start offsets of pattern in a uint8 text, overlapping ones included
    (bytes.count would skip them): every offset is compared."""
    m = len(text) - len(pattern) + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    hit = text[:m] == pattern[0]
    for j in range(1, len(pattern)):
        hit &= text[j : j + m] == pattern[j]
    return np.flatnonzero(hit)


class Corpus:
    """Documents joined by a zero byte, which no document or pattern holds."""

    def __init__(self, docs):
        self.docs = docs
        self.text = b"\0".join(docs)
        self._bytes = np.frombuffer(self.text, dtype=np.uint8)
        self.starts = np.cumsum([0] + [len(d) + 1 for d in docs[:-1]])

    def counts(self, pattern: bytes) -> np.ndarray:
        """Overlapping occurrence count of pattern in every document."""
        pos = occurrences(self._bytes, pattern)
        owner = np.searchsorted(self.starts, pos, side="right") - 1
        return np.bincount(owner, minlength=len(self.docs))


def scan_docs(counts, weights, order, t: int, k: int) -> tuple:
    """The k highest-weight documents with at least t occurrences."""
    top = order[counts[order] >= t][:k]
    return tuple((int(j), int(weights[j])) for j in top)


def verify(answer, expected) -> str | None:
    """None when answer is well formed and equals expected, else why not."""
    answer = tuple((int(c), int(p)) for c, p in answer)
    if len({c for c, _ in answer}) != len(answer):
        return "repeated id"
    for (c1, p1), (c2, p2) in zip(answer, answer[1:]):
        if (p2, c2) >= (p1, c1):
            return f"not strictly descending at {(c2, p2)}"
    if answer != expected:
        return f"differs from the scan: {answer[:4]}... vs {expected[:4]}..."
    return None
