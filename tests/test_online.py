import numpy as np
import pytest

from topkolors.chunked import ChunkedTopK
from topkolors.errors import InvalidRange
from topkolors.model import new_color_array, oracle_distinct_count, oracle_topk
from topkolors.online import ColorStream, open_stream
from topkolors.optimal import OptimalTopK
from topkolors.sparse import SparseTopK
from topkolors.wavelet import WaveletTopK

CANON = new_color_array([2, 0, 1, 0, 2, 1, 3, 2], {0: 4, 1: 2, 2: 7, 3: 5})


def random_array(rng, n, sigma):
    raw = rng.integers(0, sigma, size=n)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    prio = {c: int(p) for c, p in enumerate(rng.integers(0, 50, size=sig))}
    return new_color_array(dense, prio)


def test_canonical_full_drain():
    s = open_stream(OptimalTopK(CANON), 2, 6)
    got, ledger = [], []
    for pair in s:
        got.append(pair)
        ledger.append(s.elements_requested)
    assert got == [(2, 7), (0, 4), (1, 2)]
    # request ledger: 1 up front, 3 on the second pull, and 7 on the
    # fourth, which runs past the 3 colors and finds the range exhausted
    assert ledger == [1, 4, 4]
    assert s.elements_requested == 11
    with pytest.raises(StopIteration):
        next(s)
    assert next(s, None) is None
    assert next(s, None) is None


def test_prefix_matches_fixed_k_queries():
    ix = WaveletTopK(CANON)
    for a in range(1, 9):
        for b in range(a, 9):
            full = list(open_stream(ix, a, b))
            assert full == oracle_topk(CANON, a, b, 8)
            for k in range(1, len(full) + 1):
                s = open_stream(ix, a, b)
                got = [next(s) for _ in range(k)]
                assert got == oracle_topk(CANON, a, b, k)


@pytest.mark.parametrize("make", [WaveletTopK, SparseTopK, OptimalTopK, ChunkedTopK])
def test_all_index_kinds_agree(make):
    rng = np.random.default_rng(21)
    arr = random_array(rng, 120, 9)
    s = open_stream(make(arr), 10, 95)
    assert list(s) == oracle_topk(arr, 10, 95, 120)


def test_work_bound_eight_k_plus_sixteen():
    rng = np.random.default_rng(22)
    arr = random_array(rng, 400, 40)
    ix = SparseTopK(arr)
    for _ in range(60):
        a = int(rng.integers(1, 401))
        b = int(rng.integers(a, 401))
        s = open_stream(ix, a, b)
        pulled = 0
        budget = int(rng.integers(1, 50))
        for _ in range(budget):
            if next(s, None) is None:
                break
            pulled += 1
            assert s.elements_requested <= 8 * pulled + 16, (a, b, pulled)


def test_stream_exhausts_exactly_at_distinct_count():
    rng = np.random.default_rng(23)
    arr = random_array(rng, 200, 12)
    ix = OptimalTopK(arr)
    for a, b in [(1, 200), (50, 50), (13, 77), (198, 200)]:
        drained = list(open_stream(ix, a, b))
        assert len(drained) == oracle_distinct_count(arr, a, b)
        assert len({c for c, _ in drained}) == len(drained)


def test_stream_validates_range():
    ix = OptimalTopK(CANON)
    with pytest.raises(InvalidRange):
        ColorStream(ix, 5, 2)
    with pytest.raises(InvalidRange):
        ColorStream(ix, 0, 3)
