"""The benchmark's workloads: seeded inputs, query lists and expected answers.

Each workload has the same four query classes in equal numbers, shuffled
once by the seed.  Expected answers come from the scans in check.py, never
from the library.  The library sees only the generated colors, priorities,
documents and weights, through its public constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from statistics import NormalDist
from typing import Callable

import numpy as np

import check
import topkolors as tk

CLASSES = ("narrow", "wide", "bulk", "stream")
N_ARRAY = 1 << 18
NARROW = 64
STREAM_WIDTH = 4096
STREAM_PULLS = 64


@dataclass
class Op:
    cls: str
    fn: Callable
    args: tuple
    expected: tuple

    def run(self, index):
        return self.fn(index, *self.args)


@dataclass
class Prepared:
    """Generated inputs: make_input() gives the library's input object,
    engine(input) builds the index, make_ops() gives the shuffled queries."""

    make_input: Callable[[], object]
    engine: Callable[[object], object]
    make_ops: Callable[[], list[Op]]

    def build(self):
        return self.engine(self.make_input())


def _topk(index, a, b, k):
    return index.topk(a, b, k)


def _pull(index, a, b, m):
    return list(islice(tk.open_stream(index, a, b), m))


def _ranked(index, pattern, k):
    return index.ranked_list(pattern, k)


def _tmine(index, pattern, t, k):
    return index.t_mine(pattern, t, k)


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _array(seed: int, sigma: int, engine, per_class: int) -> Prepared:
    """N = 2^18 uniform colors over sigma, each present, distinct priorities."""
    rng = np.random.default_rng(seed)
    n = N_ARRAY
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    prio = rng.choice(1 << 40, size=sigma, replace=False)
    order = check.rank_order(prio)
    half = n // 2

    def topk(cls, width, k):
        a = int(rng.integers(1, n - width + 2))
        b = a + width - 1
        return Op(cls, _topk, (a, b, k), check.scan_topk(colors, prio, order, a, b, k))

    def make_ops():
        ops = []
        for _ in range(per_class):
            ops.append(topk("narrow", NARROW, 16))
            ops.append(topk("wide", half, 16))
            ops.append(topk("bulk", half, 1024))
            a = int(rng.integers(1, n - STREAM_WIDTH + 2))
            b = a + STREAM_WIDTH - 1
            want = check.scan_topk(colors, prio, order, a, b, STREAM_PULLS)
            ops.append(Op("stream", _pull, (a, b, STREAM_PULLS), want))
        return _shuffled(rng, ops)

    def make_input():
        return tk.new_color_array(colors, {c: int(p) for c, p in enumerate(prio)})

    return Prepared(make_input, engine, make_ops)


def optimal_4k(seed: int) -> Prepared:
    return _array(seed, 4096, tk.OptimalTopK, per_class=64)


def wavelet_4k(seed: int) -> Prepared:
    return _array(seed, 4096, tk.WaveletTopK, per_class=64)


def low_sigma(seed: int) -> Prepared:
    return _array(seed, 4, tk.ChunkedTopK, per_class=512)


PER_CLASS_DOCS = 64
# stream asks t = 8 only of the most frequent words, the only ones that some
# document holds 8 times.  On rarer words t = 8 answers nothing in a third
# of the time t = 2 takes, and an even split of the two put the median of
# the class in the gap between them, where it moved by 20 % from run to run.
T8_WORDS = 8
DOCS = 2000
VOCAB = 3000
MEAN_WORDS = 18
LETTERS = b"etaoinshrdlucmfwypvbgkjqxz"
WORD_LENGTHS = np.random.default_rng(0).integers(2, 9, VOCAB)


def corpus(rng):
    """DOCS documents of Zipf-distributed words, each word with a space on
    both sides, and weights in [0, 1000) so that equal weights occur.

    Document lengths are the quantiles of one log-normal law, shuffled, and
    the word of Zipf rank r has length WORD_LENGTHS[r] whatever the seed,
    so every seed gives about the same text size and pattern frequencies.
    Returns the documents, the weights, the vocabulary by Zipf rank and
    the word ids of every document.
    """
    lp = 1.0 / np.arange(1, len(LETTERS) + 1) ** 0.7
    lp /= lp.sum()
    letters = np.frombuffer(LETTERS, dtype=np.uint8)
    words: list[bytes] = []
    seen: set[bytes] = set()
    for length in WORD_LENGTHS:
        while True:
            w = bytes(rng.choice(letters, length, p=lp).tolist())
            if w not in seen:
                break
        seen.add(w)
        words.append(w)
    zipf = 1.0 / np.arange(1, VOCAB + 1) ** 1.05
    normal = NormalDist(np.log(MEAN_WORDS), 0.8)
    lens = [round(np.exp(normal.inv_cdf((i + 0.5) / DOCS))) for i in range(DOCS)]
    lens = rng.permutation(np.maximum(lens, 3))
    picks = rng.choice(VOCAB, int(lens.sum()), p=zipf / zipf.sum())
    ids = np.split(picks, np.cumsum(lens)[:-1])
    docs = [b" " + b" ".join(words[w] for w in doc) + b" " for doc in ids]
    return docs, rng.integers(0, 1000, DOCS), words, ids


def docs(seed: int) -> Prepared:
    rng = np.random.default_rng(seed)
    texts, weights, words, ids = corpus(rng)

    def make_input():
        return tk.DocumentCollection(texts), {j: int(w) for j, w in enumerate(weights)}

    def engine(inp):
        return tk.DocumentIndex(*inp)

    return Prepared(make_input, engine, lambda: _docs_ops(rng, texts, weights, words, ids))


def _docs_ops(rng, texts, weights, words, ids) -> list[Op]:
    """Patterns are whole words with their spaces, " w ", so that a word's
    frequency, which its Zipf rank sets, sets the size of its suffix range."""
    freq = np.bincount(np.concatenate(ids), minlength=VOCAB)
    in_docs = np.zeros(VOCAB, dtype=np.int64)
    for doc in ids:
        in_docs[np.unique(doc)] += 1
    by_freq = np.argsort(-freq, kind="stable")
    narrow = by_freq[(freq[by_freq] >= 8) & (freq[by_freq] <= 64)]
    frequent = by_freq[:PER_CLASS_DOCS]
    bulk = by_freq[in_docs[by_freq] >= 1024][:3]
    scan = check.Corpus(texts)
    order = check.rank_order(weights)

    def op(cls, fn, w, t, k):
        p = b" " + words[int(w)] + b" "
        return Op(cls, fn, (p, t, k) if fn is _tmine else (p, k),
                  check.scan_docs(scan.counts(p), weights, order, t, k))

    # narrow words are drawn one per frequency stratum, the others walk
    # their pools in order, so every seed asks for the same mix
    ops = []
    for i in range(PER_CLASS_DOCS):
        j = int((i + rng.random()) * len(narrow) / PER_CLASS_DOCS)
        ops.append(op("narrow", _ranked, narrow[j], 1, 16))
        ops.append(op("wide", _ranked, frequent[i], 1, 16))
        ops.append(op("bulk", _ranked, bulk[i % len(bulk)], 1, 1024))
        ops.append(op("stream", _tmine, frequent[i], 8 if i < T8_WORDS else 2, 16))
    return _shuffled(rng, ops)


WORKLOADS = {
    "optimal-4k": optimal_4k,
    "wavelet-4k": wavelet_4k,
    "docs": docs,
    "low-sigma": low_sigma,
}
# load_index calls per run whose median is setup_s: 2.5 to 5 s of loading
LOADS = {"optimal-4k": 15, "wavelet-4k": 3, "docs": 3, "low-sigma": 25}
