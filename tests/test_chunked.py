import gc
import tracemalloc

import numpy as np
import pytest

from topkolors.chunked import ChunkedTopK
from topkolors.errors import InvalidRange
from topkolors.model import new_color_array, oracle_topk
from topkolors.sparse import SparseTopK


def random_array(rng, n, sigma):
    raw = rng.integers(0, sigma, size=n)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    prio = {c: int(p) for c, p in enumerate(rng.integers(0, 50, size=sig))}
    return new_color_array(dense, prio)


def test_sigma_one_direct_path():
    ix = ChunkedTopK(new_color_array([0] * 7, {0: 42}))
    assert ix.topk(1, 7, 3) == [(0, 42)]
    assert ix.topk(4, 4, 1) == [(0, 42)]
    with pytest.raises(InvalidRange):
        ix.topk(2, 1, 1)


def test_canonical_single_chunk():
    arr = new_color_array([2, 0, 1, 0, 2, 1, 3, 2], {0: 4, 1: 2, 2: 7, 3: 5})
    ix = ChunkedTopK(arr)
    assert ix.topk(2, 6, 2) == [(2, 7), (0, 4)]
    assert ix.topk(1, 8, 4) == [(2, 7), (3, 5), (0, 4), (1, 2)]


def test_exhaustive_packed_regime():
    rng = np.random.default_rng(2)
    arr = random_array(rng, 64, 2)
    ix = ChunkedTopK(arr)
    for a in range(1, 65):
        for b in range(a, 65):
            for k in (1, 2, 5):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (a, b, k)


def test_exhaustive_recursive_regime():
    rng = np.random.default_rng(3)
    arr = random_array(rng, 100, 3)
    ix = ChunkedTopK(arr)
    for a in range(1, 101):
        for b in range(a, 101):
            for k in (1, 3):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (a, b, k)


def test_middle_chunks_with_missing_colors():
    # a middle stretch holding only color 0, between two holding all three
    colors = [0, 1, 2, 0] + [0, 0, 0, 0] + [2, 1, 0, 1]
    arr = new_color_array(colors, {0: 3, 1: 8, 2: 5})
    ix = ChunkedTopK(arr)
    for a in range(1, 13):
        for b in range(a, 13):
            for k in (1, 2, 3):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
    got = ix.topk(1, 12, 3)
    assert got == [(1, 8), (2, 5), (0, 3)]


def test_measured_bits_exclude_memo_growth():
    rng = np.random.default_rng(7)
    arr = random_array(rng, 64, 2)
    ix = ChunkedTopK(arr)
    before = ix.measured_bits()
    assert before > 0
    for a in range(1, 60, 3):
        ix.topk(a, a + 4, 2)
    assert ix.measured_bits() == before


def test_random_oracle_both_regimes():
    rng = np.random.default_rng(8)
    # (n, sigma, stride of the boundary probes)
    cases = [(256, 2, 32), (300, 3, 27), (500, 4, 64), (400, 20, 400),
             (1024, 5, 125)]
    for n, sigma, step in cases:
        arr = random_array(rng, n, sigma)
        ix = ChunkedTopK(arr)
        for _ in range(150):
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(a, n + 1))
            k = int(rng.integers(1, 12))
            assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (n, sigma, a, b, k)
        # probes straddling every step-th position
        for edge in range(step, n, step):
            assert ix.topk(edge, min(edge + 1, n), 2) == oracle_topk(
                arr, edge, min(edge + 1, n), 2
            )


def test_measured_bits_are_the_core_and_match_the_traced_heap():
    rng = np.random.default_rng(13)
    arr = random_array(rng, 1 << 16, 4)
    gc.collect()
    tracemalloc.start()
    ix = ChunkedTopK(arr)
    gc.collect()
    live = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    bits = ix.measured_bits()
    assert bits == SparseTopK(arr, f=2).measured_bits()
    assert abs(bits - 8 * live) <= 0.1 * 8 * live, (bits, 8 * live)
