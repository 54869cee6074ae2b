import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors import new_color_array, oracle_distinct_count, oracle_topk
from topkolors.errors import OutOfBounds
from topkolors.wavelet import EMPTY, WaveletTopK

A = [2, 0, 1, 0, 2, 1, 3, 2]
P = {0: 4, 1: 2, 2: 7, 3: 5}


def build_canonical():
    return WaveletTopK(new_color_array(A, P))


def test_root_bit_sequence():
    # effective priority order is 1 < 0 < 3 < 2, so the upper half of the
    # rank range holds colors {3, 2}
    ix = build_canonical()
    assert ix.height == 2
    root = ix._bits[0]
    got = [root.rank1(i) - root.rank1(i - 1) for i in range(1, 9)]
    assert got == [1, 0, 0, 0, 1, 0, 1, 1]
    # independent derivation from the definition
    ranks = ix.arr.ranks
    assert got == [int(r >= 2) for r in ranks]


def test_map_interval_canonical():
    ix = build_canonical()
    assert ix.map_interval(0, 0, 2, 6, "right") == (2, 2)
    assert ix.map_interval(0, 0, 1, 8, "right") == (1, 4)
    assert ix.map_interval(0, 0, 3, 3, "left") == (2, 2)
    assert ix.map_interval(0, 0, 7, 7, "left") == EMPTY  # position 7 is a 1
    assert ix.map_interval(0, 0, 3, 1, "right") == EMPTY  # sentinel in, out
    with pytest.raises(OutOfBounds):
        ix.map_interval(0, 0, 0, 5, "right")
    with pytest.raises(OutOfBounds):
        ix.map_interval(0, 0, 1, 9, "left")


def test_map_interval_matches_scan():
    ix = build_canonical()
    ranks = list(ix.arr.ranks)
    for a in range(1, 9):
        for b in range(a, 9):
            window = ranks[a - 1 : b]
            for side, keep in (("right", [2, 3]), ("left", [0, 1])):
                got = ix.map_interval(0, 0, a, b, side)
                matching = [r for r in window if r in keep]
                before = [r for r in ranks[: a - 1] if r in keep]
                if not matching:
                    assert got == EMPTY
                else:
                    lo = len(before) + 1
                    assert got == (lo, lo + len(matching) - 1)


def test_canonical_queries():
    ix = build_canonical()
    assert ix.topk(2, 6, 2) == [(2, 7), (0, 4)]
    assert ix.topk(1, 8, 10) == [(2, 7), (3, 5), (0, 4), (1, 2)]
    assert ix.topk(3, 3, 1) == [(1, 2)]


def test_single_color_has_no_bits():
    ix = WaveletTopK(new_color_array([0, 0, 0], {0: 9}))
    assert ix.height == 0 and ix._bits == []
    assert ix.topk(1, 3, 5) == [(0, 9)]


def test_level_array_lengths_partition_n():
    ix = build_canonical()
    for d in range(ix.height):
        assert int(ix._offsets[d][-1]) == ix.n


def test_count_instrumentation_matches_oracle():
    arr = new_color_array(A, P)
    ix = WaveletTopK(arr)
    ranks = arr.ranks
    # topk counts on levels 1..height only
    for level in range(1, ix.height + 1):
        # a level lists the elements grouped by node, in array order
        nodes = ranks >> (ix.height - level)
        perm = np.argsort(nodes, kind="stable")
        off = np.zeros((1 << level) + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=1 << level), out=off[1:])
        for node in range(1 << level):
            size = int(off[node + 1] - off[node])
            for a in range(1, size + 1):
                for b in range(a, size + 1):
                    pos = perm[int(off[node]) + a - 1 : int(off[node]) + b]
                    m = ix._count(level, node, a, b)
                    assert m == len(set(arr.colors[pos].tolist()))
                    lo, hi = int(pos.min()) + 1, int(pos.max()) + 1
                    assert m <= oracle_distinct_count(arr, lo, hi)


def test_level_pred_matches_the_node_local_pred():
    # each level keeps one pred over all its nodes; a rank's node is a
    # function of the rank, so it must equal the pred computed per node
    rng = np.random.default_rng(71)
    n, sigma = 3000, 300
    colors = list(range(sigma)) + list(rng.integers(0, sigma, n - sigma))
    rng.shuffle(colors)
    ix = WaveletTopK(new_color_array(colors, dict(enumerate(range(sigma)))))
    for level, rep in ix._reporters.items():
        vals = rep.values.tolist()
        last, want = {}, []
        for i, v in enumerate(vals):
            key = (v >> (ix.height - level), v)
            want.append(last.get(key, -1))
            last[key] = i
        assert ix._counters[level].pred is rep.pred
        assert rep.pred.tolist() == want


def test_measured_bits_counts_every_held_array_once(held_bits):
    rng = np.random.default_rng(67)
    n, sigma = 1 << 16, 256
    colors = rng.integers(0, sigma, size=n)
    colors[:sigma] = np.arange(sigma)
    arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma).tolist())))
    ix = WaveletTopK(arr)
    ix.topk(1, n, 16)
    # the array is the caller's input, not part of the index
    assert ix.measured_bits() == held_bits(ix, arr)
    assert ix.measured_bits() / n <= 64 * ix.height + 8


def test_level_arrays_stay_int32_over_uint16_ranks():
    rng = np.random.default_rng(71)
    n, sigma = 4096, 300
    colors = rng.integers(0, sigma, size=n)
    colors[:sigma] = np.arange(sigma)
    arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma).tolist())))
    assert arr.ranks.dtype == np.uint16
    ix = WaveletTopK(arr)
    assert ix._reporters and ix._counters
    for d, reporter in ix._reporters.items():
        assert reporter.values.dtype == np.int32
        assert ix._counters[d].pred.dtype == reporter.pred.dtype
    assert all(off.dtype == np.int64 for off in ix._offsets)


@st.composite
def arrays(draw, max_n=64, max_sigma=16):
    sigma = draw(st.integers(1, max_sigma))
    n = draw(st.integers(sigma, max_n))
    body = draw(st.lists(st.integers(0, sigma - 1), min_size=n - sigma,
                         max_size=n - sigma))
    colors = list(range(sigma)) + body
    draw(st.randoms()).shuffle(colors)
    prios = draw(st.permutations(range(1, sigma + 1)))
    return new_color_array(colors, dict(enumerate(prios)))


@given(arrays(), st.data())
@settings(max_examples=60, deadline=None)
def test_matches_oracle(arr, data):
    ix = WaveletTopK(arr)
    a = data.draw(st.integers(1, arr.n))
    b = data.draw(st.integers(a, arr.n))
    k = data.draw(st.sampled_from([1, 2, max(1, arr.sigma // 2), arr.n]))
    assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
    assert ix.last_visited <= 2 * (ix.height + 1)


def test_exhaustive_small():
    rng = np.random.default_rng(3)
    for sigma, n in [(1, 5), (2, 6), (4, 9), (8, 12)]:
        colors = list(range(sigma)) + list(rng.integers(0, sigma, n - sigma))
        rng.shuffle(colors)
        prios = dict(enumerate(rng.permutation(n * 2)[:sigma] + 1))
        arr = new_color_array(colors, prios)
        ix = WaveletTopK(arr)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                for k in (1, 2, sigma, n):
                    assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
