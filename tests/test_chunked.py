import numpy as np
import pytest

from topkolors.chunked import _WORD_TABLE_CAP, ChunkedParams, ChunkedTopK
from topkolors.errors import BadParameter, InvalidRange
from topkolors.model import new_color_array, oracle_topk


def random_array(rng, n, sigma):
    raw = rng.integers(0, sigma, size=n)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    prio = {c: int(p) for c, p in enumerate(rng.integers(0, 50, size=sig))}
    return new_color_array(dense, prio)


def test_regime_selection():
    rng = np.random.default_rng(1)
    packed = ChunkedTopK(random_array(rng, 64, 2))
    assert packed.regime == "packed"
    assert packed.chunk_len == 24  # 2^2 * floor(log2 64)
    assert packed.num_chunks == 3
    rec = ChunkedTopK(random_array(rng, 100, 3))
    assert rec.regime == "recursive"
    assert rec.chunk_len == 27
    assert rec.num_chunks == 4
    ones = ChunkedTopK(new_color_array([0, 0, 0], {0: 9}))
    assert ones.regime == "trivial"


def test_sigma_one_direct_path():
    ix = ChunkedTopK(new_color_array([0] * 7, {0: 42}))
    assert ix.topk(1, 7, 3) == [(0, 42)]
    assert ix.topk(4, 4, 1) == [(0, 42)]
    assert ix.last_path == "trivial"
    with pytest.raises(InvalidRange):
        ix.topk(2, 1, 1)


def test_canonical_single_chunk():
    arr = new_color_array([2, 0, 1, 0, 2, 1, 3, 2], {0: 4, 1: 2, 2: 7, 3: 5})
    ix = ChunkedTopK(arr)
    assert ix.num_chunks == 1
    assert ix.topk(2, 6, 2) == [(2, 7), (0, 4)]
    assert ix.topk(1, 8, 4) == [(2, 7), (3, 5), (0, 4), (1, 2)]
    assert ix.last_path == "chunk"


def test_exhaustive_packed_regime():
    rng = np.random.default_rng(2)
    arr = random_array(rng, 64, 2)
    ix = ChunkedTopK(arr)
    assert ix.regime == "packed"
    for a in range(1, 65):
        for b in range(a, 65):
            for k in (1, 2, 5):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (a, b, k)


def test_exhaustive_recursive_regime():
    rng = np.random.default_rng(3)
    arr = random_array(rng, 100, 3)
    ix = ChunkedTopK(arr)
    assert ix.regime == "recursive"
    assert ix.num_chunks > 1
    for a in range(1, 101):
        for b in range(a, 101):
            for k in (1, 3):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (a, b, k)


def test_same_chunk_delegation_flag():
    rng = np.random.default_rng(4)
    arr = random_array(rng, 100, 3)
    ix = ChunkedTopK(arr)
    ix.topk(2, 20, 2)  # inside chunk 0 (length 27)
    assert ix.last_path == "chunk"
    ix.topk(2, 60, 2)
    assert ix.last_path == "split"


def test_middle_chunks_with_missing_colors():
    # middle chunk holds only color 0; asking for more colors than the
    # middle has must not surface the absent-color slot
    colors = [0, 1, 2, 0] + [0, 0, 0, 0] + [2, 1, 0, 1]
    arr = new_color_array(colors, {0: 3, 1: 8, 2: 5})
    ix = ChunkedTopK(arr, ChunkedParams(chunk_len_override=4))
    assert ix.num_chunks == 3
    for a in range(1, 13):
        for b in range(a, 13):
            for k in (1, 2, 3):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
    got = ix.topk(1, 12, 3)
    assert got == [(1, 8), (2, 5), (0, 3)]


def test_packed_words_match_ranks():
    rng = np.random.default_rng(5)
    arr = random_array(rng, 64, 2)
    ix = ChunkedTopK(arr)
    ranks = arr.ranks()
    p_len = ix._p_len
    for ci, chunk in enumerate(ix._chunks):
        seg = ranks[ci * ix.chunk_len : ci * ix.chunk_len + chunk.n]
        mask = (1 << chunk.bits) - 1
        for pi, word in enumerate(chunk.words):
            plen = chunk._piece_len(pi)
            got = [(word >> (t * chunk.bits)) & mask for t in range(plen)]
            want = [int(v) for v in seg[pi * p_len : pi * p_len + plen]]
            assert got == want


def test_chunk_len_override_and_validation():
    rng = np.random.default_rng(6)
    arr = random_array(rng, 30, 3)
    ix = ChunkedTopK(arr, ChunkedParams(chunk_len_override=7))
    assert ix.chunk_len == 7
    assert ix.num_chunks == 5
    for a, b, k in [(1, 30, 3), (7, 8, 2), (6, 23, 1), (8, 14, 3)]:
        assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
    with pytest.raises(BadParameter):
        ChunkedTopK(arr, ChunkedParams(chunk_len_override=0))


def test_measured_bits_exclude_memo_growth():
    rng = np.random.default_rng(7)
    arr = random_array(rng, 64, 2)
    ix = ChunkedTopK(arr)
    before = ix.measured_bits()
    assert before > 0
    for a in range(1, 60, 3):
        ix.topk(a, a + 4, 2)
    assert len(ix._word_table) > 0
    assert ix.measured_bits() == before


def test_random_oracle_both_regimes():
    rng = np.random.default_rng(8)
    cases = [(256, 2), (300, 3), (500, 4), (400, 20), (1024, 5)]
    for n, sigma in cases:
        arr = random_array(rng, n, sigma)
        ix = ChunkedTopK(arr)
        for _ in range(150):
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(a, n + 1))
            k = int(rng.integers(1, 12))
            assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (n, sigma, a, b, k)
        # chunk boundary straddles
        step = ix.chunk_len
        for edge in range(step, n, step):
            assert ix.topk(edge, min(edge + 1, n), 2) == oracle_topk(
                arr, edge, min(edge + 1, n), 2
            )


def test_word_table_is_bounded():
    # enough distinct narrow queries at sigma = 4 to fill the memo table
    rng = np.random.default_rng(12)
    n = 1 << 17
    arr = random_array(rng, n, 4)
    ix = ChunkedTopK(arr)
    assert ix.regime == "packed"
    sizes = []
    for t in range(12000):
        a = int(rng.integers(1, n - 63))
        b = a + int(rng.integers(0, 64))
        got = ix.topk(a, b, 3)
        sizes.append(len(ix._word_table))
        if t % 50 == 0:
            assert got == oracle_topk(arr, a, b, 3)
    assert max(sizes) <= _WORD_TABLE_CAP
    # the table filled up and started over at least once
    assert max(sizes) > _WORD_TABLE_CAP - 3
    assert any(y < x for x, y in zip(sizes, sizes[1:]))
