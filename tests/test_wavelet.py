import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors import new_color_array, open_stream, oracle_distinct_count, oracle_topk
from topkolors.bits import RankSelectBits
from topkolors.errors import OutOfBounds
from topkolors.primitives import ColorCounter
from topkolors.wavelet import WaveletTopK

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
    # root bits 1 0 0 0 1 0 1 1, so Z_0 = 4 and the right child starts at 4
    ix = build_canonical()
    assert ix.map_interval(0, 1, 6) == ((0, 4), (5, 6))
    assert ix.map_interval(0, 0, 8) == ((0, 4), (4, 8))
    assert ix.map_interval(0, 2, 3) == ((1, 2), (5, 5))
    assert ix.map_interval(0, 6, 7) == ((4, 4), (6, 7))  # position 6 is a 1
    assert ix.map_interval(0, 3, 3) == ((2, 2), (5, 5))  # empty in, empty out
    with pytest.raises(OutOfBounds):
        ix.map_interval(0, -1, 5)
    with pytest.raises(OutOfBounds):
        ix.map_interval(0, 0, 9)


def test_map_interval_matches_scan():
    ix = build_canonical()
    ranks = list(ix.arr.ranks)
    level1 = ix._reporters[1].values.tolist()
    zeros = sum(r < 2 for r in ranks)
    for lo in range(9):
        for hi in range(lo, 9):
            window = ranks[lo:hi]
            got = ix.map_interval(0, lo, hi)
            for (clo, chi), keep, base in ((got[0], [0, 1], 0),
                                           (got[1], [2, 3], zeros)):
                matching = [r for r in window if r in keep]
                before = [r for r in ranks[:lo] if r in keep]
                start = base + len(before)
                assert (clo, chi) == (start, start + len(matching))
                assert level1[clo:chi] == matching


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
    # level d + 1 is level d's zeros then its ones, each in level-d order
    ix = build_canonical()
    h = ix.height
    levels = [ix.arr.ranks.astype(np.int64)]
    levels += [ix._reporters[d].values for d in range(1, h)]
    for d in range(h):
        vals = levels[d]
        assert len(vals) == ix.n
        bit = (vals >> (h - 1 - d)) & 1
        bv = ix._bits[d]
        assert [bv.rank1(i + 1) - bv.rank1(i) for i in range(ix.n)] == bit.tolist()
        assert ix._zeros[d] == int(np.count_nonzero(bit == 0))
        if d + 1 < h:
            want = np.concatenate((vals[bit == 0], vals[bit == 1]))
            assert levels[d + 1].tolist() == want.tolist()


def test_count_instrumentation_matches_oracle():
    arr = new_color_array(A, P)
    ix = WaveletTopK(arr)
    ranks = arr.ranks
    # topk counts on levels 1..height only
    for level in range(1, ix.height + 1):
        # a level lists the elements grouped by node, the nodes ordered by
        # their bit-reversed id, and each node's elements in array order
        nodes = (ranks >> (ix.height - level)).astype(np.int64)
        flipped = sum(((nodes >> j) & 1) << (level - 1 - j) for j in range(level))
        perm = np.argsort(flipped, kind="stable")
        for node in range(1 << level):
            at = np.flatnonzero(nodes[perm] == node)
            size = len(at)
            if size:
                assert at.tolist() == list(range(at[0], at[0] + size))
            for a in range(1, size + 1):
                for b in range(a, size + 1):
                    lo, hi = int(at[0]) + a - 1, int(at[0]) + b
                    pos = perm[lo:hi]
                    m = ix._count(level, lo, hi)
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
    # the array is the caller's input, not part of the index; the Z_d
    # counts are Python ints, 64 bits each
    assert ix.measured_bits() == held_bits(ix, arr) + 64 * ix.height
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


@pytest.mark.parametrize("sigma", [4096, 4097])
def test_matches_oracle_at_2_16(sigma):
    # sigma 4097 pads the rank range to 8192: most of the tree is padding
    rng = np.random.default_rng(sigma)
    n = 1 << 16
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    prios = rng.choice(1 << 40, size=sigma, replace=False)
    arr = new_color_array(colors, {c: int(p) for c, p in enumerate(prios)})
    ix = WaveletTopK(arr)
    for width in (64, 4096, n // 2):
        for a in rng.integers(1, n - width + 2, size=2).tolist():
            b = a + width - 1
            for k in (1, 16, 1024, sigma):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
                assert ix.last_visited <= 2 * (ix.height + 1)
    a = int(rng.integers(1, n - 4096 + 2))
    b = a + 4095
    assert oracle_topk(arr, a, b, sigma) == list(open_stream(ix, a, b))


def test_counters_keep_their_meaning(monkeypatch):
    # one map_interval per level walked, two rank1 per map_interval, and at
    # most one count per level: the traced counters read these calls
    rng = np.random.default_rng(83)
    n, sigma = 1 << 16, 4096
    colors = rng.integers(0, sigma, size=n)
    colors[:sigma] = np.arange(sigma)
    arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma).tolist())))
    ix = WaveletTopK(arr)
    maps, counts, ranks = [], [], []

    def spy(cls, name, log, key):
        run = getattr(cls, name)
        def wrapper(obj, *args):
            log.append(key(obj, args))
            return run(obj, *args)
        monkeypatch.setattr(cls, name, wrapper)

    spy(WaveletTopK, "map_interval", maps, lambda ix, args: args[0])
    spy(ColorCounter, "count_range", counts, lambda counter, args: id(counter))
    spy(RankSelectBits, "rank1", ranks, lambda bv, args: None)
    levels = {id(c): d for d, c in ix._counters.items()}
    a, b = n // 4, n // 4 + n // 2 - 1
    for k in (16, 1024):
        for log in (maps, counts, ranks):
            log.clear()
        assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
        assert maps == list(range(len(maps)))
        assert 0 < len(maps) <= ix.height
        assert len(ranks) == 2 * len(maps)
        counted = [levels[c] for c in counts]
        assert len(counted) == len(set(counted))
        assert all(1 <= d <= len(maps) for d in counted)
