import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors import new_color_array, oracle_topk
from topkolors.chunked import ChunkedTopK
from topkolors.errors import BadParameter
from topkolors.model import ColorArray, oracle_distinct_count
from topkolors.optimal import OptimalTopK
from topkolors.sparse import (_FIRST_BATCH, _FLAT_BATCH, _K_WIDTH,
                               _SUMMARY_BLOCK, _SUMMARY_GROUP,
                               SparseTopK, _SparseCore, fitted_levels,
                               stride_levels)
from topkolors.util import ceil_log2, floor_log2, nbits

A = [2, 0, 1, 0, 2, 1, 3, 2]
P = {0: 4, 1: 2, 2: 7, 3: 5}


def test_important_levels_small():
    ix = SparseTopK(new_color_array(A, P), f=2)
    assert ix.levels == [0, 1, 2]


def test_f_validation():
    arr = new_color_array(A, P)
    # a non-integer f would save a snapshot that load_index refuses
    for f in (1, 2.5, "3", None):
        with pytest.raises(BadParameter):
            SparseTopK(arr, f=f)


def test_descend_interval_example():
    # root's right child covers the colors {2, 3} (the upper rank half)
    core = SparseTopK(new_color_array(A, P), f=2).core
    assert core.map_child(0, 1, 2, 8) == (2, 4)
    assert core.map_child(0, 1, 1, 8) == (1, 4)  # full interval
    assert core.map_child(0, 0, 7, 7) == (1, 0)  # no matching element


def test_canonical_queries():
    for f in (2, 3):
        ix = SparseTopK(new_color_array(A, P), f=f)
        assert ix.topk(2, 6, 2) == [(2, 7), (0, 4)]
        assert ix.topk(1, 8, 10) == [(2, 7), (3, 5), (0, 4), (1, 2)]
        assert ix.topk(3, 3, 1) == [(1, 2)]


def test_huge_f_builds_every_level():
    # every f past log2(n) gives stride 1; the level set must not loop to f
    ix = SparseTopK(new_color_array(A, P), f=10**12)
    assert ix.levels == [0, 1, 2]
    assert ix.topk(2, 6, 2) == [(2, 7), (0, 4)]


def test_stride_levels_are_at_most_f_plus_2():
    # the multiples of max(1, floor(log2 n) / f) below the height, at most
    # f + 1 of them, and the height itself
    for n in (1, 2, 1000, 1 << 20):
        for sigma in (1, 2, 5, 4096, (1 << 16) + 1):
            height = ceil_log2(sigma)
            for f in (2, 3, 8, 40):
                stride = max(1, floor_log2(n) // f)
                want = sorted({i * stride for i in range(f + 1)
                               if i * stride < height} | {height})
                assert stride_levels(n, sigma, f) == want
                assert len(want) <= f + 2


def test_degenerate_single_color():
    ix = SparseTopK(new_color_array([0, 0], {0: 1}), f=2)
    assert ix.levels == [0]
    assert ix.topk(1, 2, 3) == [(0, 1)]


def test_space_bound():
    rng = np.random.default_rng(11)
    for n, sigma in [(100, 7), (256, 64), (33, 33)]:
        colors = list(range(sigma)) + list(rng.integers(0, sigma, n - sigma))
        rng.shuffle(colors)
        arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma) + 1)))
        for f in (2, 3):
            ix = SparseTopK(arr, f=f)
            bound = (f + 1 if len(ix.levels) <= f + 1 else f + 2) * n
            assert len(ix.levels) * n <= bound


@st.composite
def arrays(draw, max_n=96, max_sigma=24):
    sigma = draw(st.integers(1, max_sigma))
    n = draw(st.integers(sigma, max_n))
    body = draw(st.lists(st.integers(0, sigma - 1), min_size=n - sigma,
                         max_size=n - sigma))
    colors = list(range(sigma)) + body
    draw(st.randoms()).shuffle(colors)
    prios = draw(st.permutations(range(1, sigma + 1)))
    return new_color_array(colors, dict(enumerate(prios)))


@given(arrays(), st.integers(2, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_matches_oracle(arr, f, data):
    ix = SparseTopK(arr, f=f)
    a = data.draw(st.integers(1, arr.n))
    b = data.draw(st.integers(a, arr.n))
    k = data.draw(st.sampled_from([1, 2, max(1, arr.sigma // 2), arr.n]))
    want = oracle_topk(arr, a, b, k)
    assert ix.topk(a, b, k) == want
    # ranges this short are scanned; the descent must agree on them too
    if arr.sigma > 1:
        assert arr.list_from_ranks(ix.core._descend(a, b, k)) == want


def test_visit_bound():
    rng = np.random.default_rng(5)
    n, sigma = 256, 32
    colors = list(range(sigma)) + list(rng.integers(0, sigma, n - sigma))
    rng.shuffle(colors)
    arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma) + 1)))
    for f in (2, 3):
        ix = SparseTopK(arr, f=f)
        import math
        bound = f * 2 ** (math.ceil(math.log2(n) / f) + 1)
        for _ in range(200):
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(a, n + 1))
            k = int(rng.integers(1, sigma + 1))
            ix.topk(a, b, k)
            assert ix.core.last_visited <= bound
            # every range of n = 256 is scanned, so walk the descent too
            ix.core._descend(a, b, k)
            assert ix.core.last_visited <= bound


def test_exhaustive_small_both_f():
    rng = np.random.default_rng(17)
    for sigma, n in [(1, 4), (3, 8), (6, 11)]:
        colors = list(range(sigma)) + list(rng.integers(0, sigma, n - sigma))
        rng.shuffle(colors)
        arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma) + 1)))
        for f in (2, 3):
            ix = SparseTopK(arr, f=f)
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    for k in (1, 2, sigma, n):
                        want = oracle_topk(arr, a, b, k)
                        assert ix.topk(a, b, k) == want
                        if sigma > 1:
                            descent = ix.core._descend(a, b, k)
                            assert arr.list_from_ranks(descent) == want


def random_surjective(rng, n, sigma):
    colors = list(range(sigma)) + list(rng.integers(0, sigma, n - sigma))
    rng.shuffle(colors)
    return new_color_array(colors, dict(enumerate(rng.permutation(sigma) + 1)))


def test_batched_mapping_matches_map_child():
    rng = np.random.default_rng(23)
    for n, sigma in [(500, 64), (300, 200), (64, 5)]:
        arr = random_surjective(rng, n, sigma)
        ranks = arr.ranks
        for f in (2, 3):
            core = SparseTopK(arr, f=f).core
            height = core.levels[-1]
            for li in range(len(core.levels) - 1):
                d, dc = core.levels[li], core.levels[li + 1]
                for _ in range(20):
                    node = int(rng.integers(0, 1 << d))
                    # a node's elements are its positions in array order
                    elems = np.flatnonzero(ranks >> (height - d) == node)
                    if len(elems) == 0:
                        continue
                    a = int(rng.integers(1, len(elems) + 1))
                    b = int(rng.integers(a, len(elems) + 1))
                    lo = int(rng.integers(0, 1 << (dc - d)))
                    hi = int(rng.integers(lo + 1, (1 << (dc - d)) + 1))
                    for j in range(lo, hi):
                        u = (node << (dc - d)) + j
                        child = np.flatnonzero(ranks >> (height - dc) == u)
                        hit = np.flatnonzero(np.isin(child, elems[a - 1 : b]))
                        want = ((int(hit[0]) + 1, int(hit[-1]) + 1)
                                if len(hit) else (1, 0))
                        assert core.map_child(li, u, a, b) == want


def test_keys_are_int32_when_they_fit():
    rng = np.random.default_rng(29)
    n, sigma = 1 << 18, 4096
    colors = rng.integers(0, sigma, size=n)
    colors[:sigma] = np.arange(sigma)
    prio = np.arange(sigma, dtype=np.int64)
    core = SparseTopK(ColorArray(colors.astype(np.int32), prio), 2).core
    assert core.levels == [0, 9, 12]
    assert [e.dtype for e in core._E] == [np.int32, np.int32]


def test_int64_key_path_matches_oracle():
    # root fan-out 2^11 times (2^22 + 1) keys do not fit int32
    rng = np.random.default_rng(31)
    n, sigma = 1 << 22, 1 << 12
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    arr = new_color_array(colors, dict(enumerate(rng.permutation(sigma).tolist())))
    del colors
    ix = SparseTopK(arr, f=2)
    assert ix.levels == [0, 11, 12]
    assert [e.dtype for e in ix.core._E] == [np.int64, np.int32]
    for a, b, k in [(1, n, 16), (n // 3, n // 3 + 63, 16), (5, n // 2, 1024),
                    (n - 9, n, 3)]:
        assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)


def test_measured_bits_counts_every_array_once():
    rng = np.random.default_rng(37)
    for n, sigma, f in [(500, 64, 2), (300, 200, 3), (40, 1, 2)]:
        core = SparseTopK(random_surjective(rng, n, sigma), f=f).core
        held = {}
        for slot in _SparseCore.__slots__:
            value = getattr(core, slot)
            for item in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(item, np.ndarray):
                    held[id(item)] = item
        assert core.measured_bits() == sum(8 * a.nbytes for a in held.values())


def root_width_cores(arr):
    """Every wrapper of the core over arr, with the core it queries."""
    ixs = [SparseTopK(arr, f=2), SparseTopK(arr, f=3), OptimalTopK(arr),
           ChunkedTopK(arr)]
    return [(ix, ix.core) for ix in ixs]


def test_root_width_scan_matches_oracle_at_the_threshold(core_paths):
    rng = np.random.default_rng(41)
    for n, sigma in [(2000, 300), (500, 64), (700, 7)]:
        arr = random_surjective(rng, n, sigma)
        for ix, core in root_width_cores(arr):
            fan = 1 << core.levels[1]
            for w in (fan - 1, fan, fan + 1):
                if not 1 <= w <= n:
                    continue
                starts = {1, n - w + 1, int(rng.integers(1, n - w + 2))}
                for a in sorted(starts):
                    b = a + w - 1
                    distinct = oracle_distinct_count(arr, a, b)
                    for k in {1, max(1, distinct - 1), distinct, distinct + 5}:
                        got = ix.topk(a, b, k)
                        assert got == oracle_topk(arr, a, b, k), (w, a, k)
                    if w <= fan:
                        assert core_paths[-1] == ("_scan", core, a, b)


def test_root_width_scan_keeps_the_visit_bound(core_paths):
    rng = np.random.default_rng(5)
    n, sigma = 256, 32
    arr = random_surjective(rng, n, sigma)
    for f in (2, 3):
        ix = SparseTopK(arr, f=f)
        bound = f * 2 ** (math.ceil(math.log2(n) / f) + 1)
        fan = 1 << ix.levels[1]
        for w in range(1, fan + 1):
            a = int(rng.integers(1, n - w + 2))
            core_paths.clear()
            ix.topk(a, a + w - 1, int(rng.integers(1, sigma + 1)))
            assert core_paths == [("_scan", ix.core, a, a + w - 1)]
            assert w <= bound
            assert ix.core.last_visited == 0


def test_measured_bits_are_the_core_arrays_only():
    rng = np.random.default_rng(43)
    arr = random_surjective(rng, 2000, 300)
    for ix, core in root_width_cores(arr):
        want = nbits(*core._E, *core._off)
        assert ix.measured_bits() == want
        fan = 1 << core.levels[1]
        for w in (1, fan, fan + 1, arr.n):
            ix.topk(1, w, 16)
        assert ix.measured_bits() == want


def test_optimal_4k_core_is_keys_and_offsets_only():
    # the workload shape N = 2^18, sigma = 4096: one int32 key array, its
    # offsets and the rank-group summary
    rng = np.random.default_rng(47)
    n, sigma = 1 << 18, 4096
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    prio = rng.permutation(sigma).astype(np.int64)
    ix = OptimalTopK(ColorArray(colors.astype(np.int32), prio))
    assert ix._global.levels == [0, 12]
    assert [e.dtype for e in ix.core._E] == [np.int32]
    assert ix.measured_bits() == nbits(*ix.core._E, *ix.core._off,
                                       ix.core._summary)
    assert ix.measured_bits() / n <= 65


def test_keys_are_int32_at_a_million_elements():
    # node * (n + 1) keys would overflow int32 on the leaf level here
    rng = np.random.default_rng(53)
    n, sigma = 1 << 20, 4096
    colors = rng.integers(0, sigma, size=n)
    colors[:sigma] = np.arange(sigma)
    prio = np.arange(sigma, dtype=np.int64)
    core = SparseTopK(ColorArray(colors.astype(np.int32), prio), 2).core
    assert core.levels == [0, 10, 12]
    assert [e.dtype for e in core._E] == [np.int32, np.int32]


@pytest.mark.parametrize("n, sigma, f, levels", [
    (1 << 13, 1 << 13, 2, [0, 6, 12, 13]),
    (1 << 16, 1 << 12, 3, [0, 5, 10, 12]),
    (1 << 15, 3001, 2, [0, 7, 12]),
    # the root's children are leaves, and its first batch holds no keys
    (1 << 12, 33, 2, [0, 6]),
])
def test_frontier_walk_matches_oracle(n, sigma, f, levels):
    rng = np.random.default_rng(59)
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    arr = ColorArray(colors.astype(np.int32),
                     rng.permutation(sigma).astype(np.int64))
    ix = SparseTopK(arr, f=f)
    assert ix.levels == levels
    fan = 1 << levels[1]
    for w in (fan + 1, 8 * fan, n // 3, n):
        for a in {1, n - w + 1, int(rng.integers(1, n - w + 2))}:
            for k in (1, 16, 1024, sigma + 1):
                want = oracle_topk(arr, a, a + w - 1, k)
                assert ix.topk(a, a + w - 1, k) == want, (w, a, k)
                # the scan takes some of these widths: walk the frontier too
                descent = ix.core._descend(a, a + w - 1, k)
                assert arr.list_from_ranks(descent) == want, (w, a, k)


def rule_cores(rng, n):
    """The f = 2 and f = 3 cores over arrays of sigma 4, 64 and 4096."""
    for sigma in (4, 64, 4096):
        arr = random_surjective(rng, n, sigma)
        for f in (2, 3):
            yield arr, SparseTopK(arr, f=f)


def test_scan_rule_picks_the_path_at_its_width(core_paths):
    rng = np.random.default_rng(73)
    # the scan reads up to about 66k positions at k = 1024 here
    n = 1 << 17
    for arr, ix in rule_cores(rng, n):
        for k in (1, 16, 127, 1024):
            width = ix.core.scan_width(k)
            assert width + 1 <= n
            for w in (width, width + 1):
                a = int(rng.integers(1, n - w + 2))
                b = a + w - 1
                core_paths.clear()
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (w, k)
                path = "_scan" if w == width else "_descend"
                assert core_paths == [(path, ix.core, a, b)]


@pytest.mark.parametrize("sigma", [4, 4096, (1 << 16) + 1])
def test_scan_matches_oracle_at_both_switches(sigma, core_paths):
    rng = np.random.default_rng(sigma)
    n = 1 << 17
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    # few distinct priorities: ties break by color id
    arr = ColorArray(colors.astype(np.int32), rng.integers(0, 9, sigma))
    core = SparseTopK(arr, f=2).core
    mask_from = core._mask_from
    # the count never pays at sigma = 4, and does within the array past it
    assert (mask_from == n) == (sigma == 4)

    def check(a, b, k):
        want = oracle_topk(arr, a, b, k)
        core_paths.clear()
        assert arr.list_from_ranks(core.topk_ranks(a, b, k)) == want
        [(path, *where)] = core_paths
        assert where == [core, a, b]
        # both kernels, whichever the rule picked
        for switch in (0, n):
            core._mask_from = switch
            assert arr.list_from_ranks(core._scan(a, b, k)) == want
        core._mask_from = mask_from
        return path

    for k in (1, 16, 1024):
        width = core.scan_width(k)
        for d in (-1, 0, 1):
            a = int(rng.integers(1, n - width - d + 1))
            b = a + width + d
            # b - a < scan_width(k) is scanned, a wider range descends
            assert check(a, b, k) == ("_scan" if d < 0 else "_descend"), (k, d)
        if mask_from < n:
            for d in (-1, 0):
                a = int(rng.integers(1, n - mask_from - d + 1))
                assert check(a, a + mask_from + d, k) == "_scan"


def oracle_thresholded(arr, a, b, k, t):
    """The k highest-priority colors occurring at least t times in [a, b],
    by direct count."""
    counts = Counter(arr.colors[a - 1 : b].tolist())
    keep = sorted((c for c, m in counts.items() if m >= t),
                  key=lambda c: (int(arr.priority_of[c]), c), reverse=True)
    return [(c, int(arr.priority_of[c])) for c in keep[:k]]


@pytest.mark.parametrize("sigma", [4, 300, 4096, (1 << 16) + 1])
def test_thresholded_scan_matches_counts_with_both_kernels(sigma):
    rng = np.random.default_rng(sigma + 1)
    # past sigma = 2^16 the ranks are int32, and every color needs a position
    n = 1 << 17 if sigma > 1 << 16 else 1 << 15
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    # few distinct priorities: ties break by color id
    arr = ColorArray(colors.astype(np.int32), rng.integers(0, 9, sigma))
    assert arr.ranks.itemsize == (4 if sigma > 1 << 16 else 2)
    core = SparseTopK(arr, f=2).core
    mask_from = core._mask_from
    assert (mask_from < n) == (sigma > 64)
    # b - a on each side of the kernel switch, where there is one
    widths = [5, 700] + ([mask_from - 1, mask_from] if mask_from < n else [])
    for w in widths:
        a = int(rng.integers(1, n - w + 1))
        b = a + w
        for t in (1, 2, 3, 8):
            for k in (1, 16, 1024):
                want = oracle_thresholded(arr, a, b, k, t)
                assert arr.list_from_ranks(core._scan(a, b, k, t)) == want
                assert arr.list_from_ranks(core.topk_ranks(a, b, k, t)) == want
                for switch in (0, n):
                    core._mask_from = switch
                    got = core._scan(a, b, k, t)
                    assert arr.list_from_ranks(got) == want, (w, t, k, switch)
                core._mask_from = mask_from


def test_scan_width_is_at_least_the_fan_out_and_grows_with_k():
    rng = np.random.default_rng(79)
    for n in (5000, 40000):
        for _, ix in rule_cores(rng, n):
            core = ix.core
            widths = [core.scan_width(k) for k in range(1, 5000)]
            assert min(widths) >= 1 << core.levels[1]
            assert all(x <= y for x, y in zip(widths, widths[1:]))
            # topk_ranks computes the width only between these two bounds
            assert widths[0] == core._w1
            assert all(x <= core._w1 + _K_WIDTH * (k - 1)
                       for k, x in enumerate(widths, 1))


def test_scan_rule_adds_no_parameter():
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(_SparseCore.__init__) == ["self", "arr", "levels"]
    assert names(SparseTopK.__init__) == ["self", "arr", "f"]
    assert names(OptimalTopK.__init__) == ["self", "arr"]
    assert names(ChunkedTopK.__init__) == ["self", "arr"]
    assert names(fitted_levels) == ["n", "sigma"]
    assert names(_SparseCore.scan_width) == ["self", "k"]


@pytest.mark.parametrize("n, sigma, levels", [
    # optimal-4k, and sigma 4096 at the other swept sizes: flat while its
    # keys fit int32
    (1 << 18, 4096, [0, 12]),
    (1 << 16, 4096, [0, 12]),
    (1 << 20, 4096, [0, 6, 12]),
    # low-sigma, and the docs workload's main core (2001 colors)
    (1 << 18, 4, [0, 2]),
    (1 << 18, 2001, [0, 11]),
    # criterion 8's builds: the stride rule up to a tree height of 10
    (1 << 20, 1 << 10, [0, 10]),
    (1 << 19, 1 << 10, [0, 9, 10]),
    (1 << 16, 256, [0, 8]),
    (1 << 16, 32768, [0, 8, 15]),
])
def test_fitted_levels_at_the_benchmark_shapes(n, sigma, levels):
    rng = np.random.default_rng(97)
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    arr = ColorArray(colors.astype(np.int32),
                     rng.permutation(sigma).astype(np.int64))
    for cls in (OptimalTopK, ChunkedTopK):
        ix = cls(arr)
        assert ix.levels == levels
        # each level below the root: one int32 key per element and one
        # int32 offset per node, plus one; a flat set past h = 10 adds its
        # summary, one uint64 per 64 rank groups per block
        assert all(e.dtype == np.int32 for e in ix.core._E)
        summary = 0
        if len(levels) == 2 and levels[1] > 10:
            groups = -(-sigma // _SUMMARY_GROUP)
            summary = 64 * -(-groups // 64) * -(-n // _SUMMARY_BLOCK)
        assert ix.measured_bits() == summary + 32 * sum(n + (1 << d) + 1
                                                        for d in levels[1:])
    # SparseTopK(f) keeps its stride rule whatever the fit
    assert SparseTopK(arr, 2).levels == stride_levels(n, sigma, 2)


def test_fitted_levels_stay_flat_at_small_sigma():
    for sigma, levels in [(1, [0]), (2, [0, 1]), (3, [0, 2]), (4, [0, 2])]:
        assert fitted_levels(64, sigma) == levels
        arr = random_surjective(np.random.default_rng(sigma), 64, sigma)
        assert OptimalTopK(arr).levels == ChunkedTopK(arr).levels == levels


def skewed_array(rng, n, sigma, low):
    """Each of sigma colors present in the second half; the first half
    holds only the `low` lowest-priority colors."""
    prio = rng.permutation(sigma).astype(np.int64)
    colors = rng.integers(0, sigma, size=n)
    lows = np.flatnonzero(prio < low)
    colors[: n // 2] = lows[rng.integers(0, low, size=n // 2)]
    present = n // 2 + rng.choice(n - n // 2, size=sigma, replace=False)
    colors[present] = np.arange(sigma)
    return ColorArray(colors.astype(np.int32), prio)


@pytest.mark.parametrize("sigma", [4096, 32768])
def test_every_core_kind_matches_oracle_on_skewed_ranges(sigma, core_paths):
    # the skewed half's descents find their few ranks under one root child
    rng = np.random.default_rng(101)
    n = 1 << 18
    arr = skewed_array(rng, n, sigma, 64)
    for ix, core in root_width_cores(arr):
        for k in (1, 16, 1024):
            width = core.scan_width(k)
            assert width + 1 < n // 2
            for w in (width, width + 1, n // 2):
                # inside the skewed half, and across both halves
                for a in (int(rng.integers(1, n // 2 - w + 2)),
                          n // 2 - w // 2):
                    b = a + w - 1
                    core_paths.clear()
                    want = oracle_topk(arr, a, b, k)
                    assert ix.topk(a, b, k) == want, (ix.levels, w, a, k)
                    path = "_scan" if w == width else "_descend"
                    assert core_paths == [(path, core, a, b)]


@pytest.mark.parametrize("cls", [OptimalTopK, ChunkedTopK])
def test_leaf_batches_over_nodes_with_few_children(cls):
    # before the last sigma positions, which hold every color once, each
    # level-6 node holds many elements per leaf column, but nearly all of
    # them are its lowest leaf, so a cut batch of a node's top columns finds
    # too few leaves and the next batch takes more of that node
    rng = np.random.default_rng(103)
    n, sigma = 1 << 16, 4096
    prio = rng.permutation(sigma).astype(np.int64)
    by_rank = np.argsort(prio)
    ranks = rng.integers(0, sigma, size=n)
    ranks &= np.where(rng.random(n) < 0.97, ~63, -1)
    ranks[n - sigma :] = rng.permutation(sigma)
    arr = ColorArray(by_rank[ranks].astype(np.int32), prio)
    ix = cls(arr)
    # the fitted set is flat here, and its summary finds the few rank
    # groups present; {0, 6, 12} cuts the batches over level-6 nodes
    assert ix.levels == [0, 12]
    span = n - sigma
    for core in (ix.core, _SparseCore(arr, [0, 6, 12])):
        for w in (1 << 10, 1 << 15, span):
            for a in {1, span - w + 1, int(rng.integers(1, span - w + 2))}:
                b = a + w - 1
                for k in (1, 3, 16, 17, 100, 1024):
                    want = oracle_topk(arr, a, b, k)
                    got = core._descend(a, b, k)
                    assert arr.list_from_ranks(got) == want, (core.levels, w, a, k)


def reference_keys(ranks, levels):
    """Each level's keys and node offsets, from a stable argsort of its
    nodes: the build the core's sort of distinct keys replaces."""
    n, height = len(ranks), levels[-1]
    keys, offs, pos, off_p = [], [], None, np.array([0, n])
    for d, dn in zip(levels, levels[1:]):
        nodes = ranks.astype(np.int64) >> (height - dn)
        perm = np.argsort(nodes, kind="stable")
        nodes = nodes[perm]
        counts = np.bincount(nodes, minlength=1 << dn)
        off = np.concatenate([[0], np.cumsum(counts)])
        m = int(np.diff(off_p).max()) + 1
        p = perm if pos is None else pos[perm] - off_p[nodes >> (dn - d)]
        keys.append(nodes * m + p + 1)
        offs.append(off)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        off_p = off
    return keys, offs


def test_build_matches_a_stable_argsort_build():
    rng = np.random.default_rng(107)
    for n, sigma in [(40, 2), (1000, 7), (5000, 300), (1 << 16, 4096),
                     (70000, 1 << 12), (1 << 13, 1 << 13)]:
        arr = random_surjective(rng, n, sigma)
        h = ceil_log2(sigma)
        sets = [[0, h], SparseTopK(arr, 3).levels, SparseTopK(arr, 5).levels]
        sets += [[0, m, h] for m in (h // 3, h // 2) if 0 < m < h]
        for levels in sets:
            core = _SparseCore(arr, levels)
            keys, offs = reference_keys(arr.ranks, levels)
            assert len(core._E) == len(keys) == len(levels) - 1
            for e, o, want_e, want_o in zip(core._E, core._off, keys, offs):
                assert np.array_equal(e, want_e), levels
                assert np.array_equal(o, want_o), levels
                assert o.dtype == np.int32


def low_prefix_array(rng, n, sigma, low, scattered=False):
    """n colors over sigma, each present after the first half; the first
    half holds only the colors of the `low` lowest ranks, or, scattered, of
    `low` ranks drawn at random."""
    prio = rng.permutation(sigma).astype(np.int64)
    colors = rng.integers(0, sigma, size=n)
    lows = (rng.choice(sigma, size=low, replace=False) if scattered
            else np.flatnonzero(prio < low))
    colors[: n // 2] = lows[rng.integers(0, low, size=n // 2)]
    colors[n // 2 + rng.choice(n - n // 2, size=sigma, replace=False)] = (
        np.arange(sigma))
    return ColorArray(colors.astype(np.int32), prio)


@pytest.mark.parametrize("scattered", [False, True])
@pytest.mark.parametrize("sigma, levels", [(1024, [0, 8, 10]), (256, [0, 8])])
def test_roots_without_a_summary_match_oracle(sigma, levels, scattered):
    # the shapes of the level sweep's skewed and scattered arrays, whose
    # first half holds sigma / 64 ranks: there a middle-level root and a
    # flat root with no summary find their top children empty
    rng = np.random.default_rng(sigma + scattered)
    n = 1 << 16
    arr = low_prefix_array(rng, n, sigma, sigma // 64, scattered)
    core = OptimalTopK(arr).core
    assert core.levels == levels and core._summary is None
    # every node on the levels below the root and above the leaves
    nodes = sum(1 << d for d in levels[1:-1])
    # whole, and reaching a few positions into the second half, whose
    # ranks spread each root batch's hits thin
    ranges = [(1, n), (n // 2 - 5000, n // 2 + 3000), (n // 2 - 9000, n // 2 + 30),
              (n // 2 - 20000, n // 2 + 100)]
    for w in (1024, 4096, 16384, n // 2):
        for a in rng.integers(1, n // 2 - w + 2, size=2).tolist():
            ranges.append((a, a + w - 1))
    for a, b in ranges:
        for k in (1, 16, 1024):
            got = arr.list_from_ranks(core._descend(a, b, k))
            assert got == oracle_topk(arr, a, b, k), (a, b, k)
            assert core.last_visited <= nodes, (a, b, k)


@pytest.mark.parametrize("sigma", [2001, 2049])
def test_summary_root_matches_oracle(sigma, core_paths, monkeypatch):
    # sigma is no multiple of the group size; the first half holds only the
    # lowest rank group, so a wide range there has fewer than k colors
    rng = np.random.default_rng(sigma)
    n, B = 1 << 17, _SUMMARY_BLOCK
    arr = low_prefix_array(rng, n, sigma, _SUMMARY_GROUP)
    presents = []
    run = _SparseCore._present

    def spy(core, a, b, top):
        presents.append((a, b))
        return run(core, a, b, top)

    monkeypatch.setattr(_SparseCore, "_present", spy)
    for ix in (OptimalTopK(arr), ChunkedTopK(arr)):
        core = ix.core
        assert core.levels == [0, ceil_log2(sigma)]
        assert core._summary is not None
        half = n // 2
        ranges = [
            # on block boundaries: both ends, the start only, the end only
            (B + 1, 40 * B), (B + 1, 40 * B + 7), (B + 9, 40 * B),
            # inside one block, and over two partial blocks
            (3 * B + 5, 3 * B + 100), (3 * B + 300, 4 * B + 200),
            # only the lowest rank group, over many blocks
            (1, half), (77, half - 3 * B - 1),
            # across both halves, and the whole array
            (half - 20 * B + 3, half + 30 * B), (1, n),
        ]
        for a, b in ranges:
            for k in (1, 16, 1024):
                want = oracle_topk(arr, a, b, k)
                core_paths.clear()
                assert ix.topk(a, b, k) == want, (a, b, k)
                path = "_scan" if b - a < core.scan_width(k) else "_descend"
                assert core_paths == [(path, core, a, b)], (a, b, k)
                # the root walk at every width, the summary's too
                got = arr.list_from_ranks(core._descend(a, b, k))
                assert got == want, (a, b, k)
        # the low half's ranges came back short of their first batch
        assert (1, half) in presents and (3 * B + 5, 3 * B + 100) in presents


def test_summary_is_counted_once_and_left_unchanged():
    rng = np.random.default_rng(109)
    n, sigma = 1 << 16, 4096
    arr = low_prefix_array(rng, n, sigma, 64)
    ix = OptimalTopK(arr)
    core = ix.core
    summary = core._summary
    assert summary.dtype == np.uint64
    assert summary.shape == (-(-sigma // (64 * _SUMMARY_GROUP)),
                             -(-n // _SUMMARY_BLOCK))
    want = nbits(*core._E, *core._off) + 8 * summary.nbytes
    assert ix.measured_bits() == core.measured_bits() == want
    before = summary.copy()
    for a, b in [(1, n), (1, n // 2), (n // 2 - 999, n // 2 + 5000), (5, 700)]:
        for k in (1, 16, 1024):
            ix.topk(a, b, k)
            core._descend(a, b, k)
    assert core._summary is summary
    assert np.array_equal(summary, before)
    assert ix.measured_bits() == want
    # each bit is a rank group present in its block, and every present
    # group has its bit
    groups = arr.ranks // _SUMMARY_GROUP
    for blk in (0, 5, n // _SUMMARY_BLOCK - 1):
        seen = np.unique(groups[blk * _SUMMARY_BLOCK : (blk + 1) * _SUMMARY_BLOCK])
        column = np.ascontiguousarray(summary[:, blk])
        bits = np.unpackbits(column.view(np.uint8), bitorder="little")
        assert np.array_equal(np.flatnonzero(bits), seen)


@pytest.mark.parametrize("sigma", [2001, 2049])
def test_summary_root_skips_the_leaves_its_first_batch_mapped(sigma, monkeypatch):
    # a few high ranks in a low range: the first batch finds them but comes
    # back less than half full, and each shares its rank group with leaves
    # below the batch, which the summary then names again
    rng = np.random.default_rng(sigma + 7)
    n = 1 << 15
    arr = low_prefix_array(rng, n, sigma, _SUMMARY_GROUP)
    ranks = arr.ranks.copy()
    for first in (_FIRST_BATCH, _FLAT_BATCH):
        r = sigma - first + 1
        assert (sigma - first) % _SUMMARY_GROUP and r % _SUMMARY_GROUP
        ranks[rng.choice(n // 2, size=5, replace=False)] = r
    by_rank = np.argsort(arr.priority_of)
    arr = ColorArray(by_rank[ranks].astype(np.int32), arr.priority_of)
    core = OptimalTopK(arr).core
    assert core.levels == [0, ceil_log2(sigma)]
    presents = []
    run = _SparseCore._present

    def spy(core, a, b, top):
        presents.append(top)
        return run(core, a, b, top)

    monkeypatch.setattr(_SparseCore, "_present", spy)
    for a, b in [(1, n // 2), (100, n // 3), (1, n)]:
        for k in (1, 16, 1024):
            want = oracle_topk(arr, a, b, k)
            presents.clear()
            got = arr.list_from_ranks(core._descend(a, b, k))
            assert got == want, (a, b, k)
            if b <= n // 2:
                assert presents == [sigma - min(max(k, _FIRST_BATCH), _FLAT_BATCH)]
