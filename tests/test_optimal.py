import numpy as np
import pytest

from topkolors.errors import InvalidRange
from topkolors.model import new_color_array, oracle_topk
from topkolors.optimal import OptimalTopK
from topkolors.sparse import SparseTopK

CANON_COLORS = [2, 0, 1, 0, 2, 1, 3, 2]
CANON_PRIO = {0: 4, 1: 2, 2: 7, 3: 5}


def canon():
    return new_color_array(CANON_COLORS, CANON_PRIO)


def random_array(rng, n, sigma):
    raw = rng.integers(0, sigma, size=n)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    prio = {c: int(p) for c, p in enumerate(rng.integers(0, 50, size=sig))}
    return new_color_array(dense, prio)


def test_canonical_queries_default_params():
    ix = OptimalTopK(canon())
    assert ix.topk(2, 6, 2) == [(2, 7), (0, 4)]
    assert ix.topk(1, 8, 4) == [(2, 7), (3, 5), (0, 4), (1, 2)]
    assert ix.topk(3, 3, 1) == [(1, 2)]
    assert ix.topk(4, 6, 3) == [(2, 7), (0, 4), (1, 2)]
    with pytest.raises(InvalidRange):
        ix.topk(0, 3, 1)
    with pytest.raises(InvalidRange):
        ix.topk(2, 6, 0)


def test_default_params_random_oracle():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(1, 200))
        arr = random_array(rng, n, int(rng.integers(1, 20)))
        ix = OptimalTopK(arr)
        for _ in range(20):
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(a, n + 1))
            k = int(rng.integers(1, n + 2))
            assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)


def test_measured_bits_accounting():
    rng = np.random.default_rng(18)
    arr = random_array(rng, 256, 16)
    assert OptimalTopK(arr).measured_bits() == SparseTopK(arr, f=2).measured_bits()
