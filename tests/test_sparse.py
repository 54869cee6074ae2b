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
from topkolors.sparse import _K_WIDTH, SparseTopK, _SparseCore
from topkolors.util import nbits

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
    core = _SparseCore(ColorArray(colors.astype(np.int32), prio), 2)
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
    # the workload shape N = 2^18, sigma = 4096: two int32 key arrays
    rng = np.random.default_rng(47)
    n, sigma = 1 << 18, 4096
    colors = rng.integers(0, sigma, size=n)
    colors[rng.choice(n, size=sigma, replace=False)] = np.arange(sigma)
    prio = rng.permutation(sigma).astype(np.int64)
    ix = OptimalTopK(ColorArray(colors.astype(np.int32), prio))
    assert ix._global.levels == [0, 9, 12]
    assert ix.measured_bits() / n <= 65


def test_keys_are_int32_at_a_million_elements():
    # node * (n + 1) keys would overflow int32 on the leaf level here
    rng = np.random.default_rng(53)
    n, sigma = 1 << 20, 4096
    colors = rng.integers(0, sigma, size=n)
    colors[:sigma] = np.arange(sigma)
    prio = np.arange(sigma, dtype=np.int64)
    core = _SparseCore(ColorArray(colors.astype(np.int32), prio), 2)
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

    assert names(_SparseCore.__init__) == ["self", "arr", "f"]
    assert names(SparseTopK.__init__) == ["self", "arr", "f"]
    assert names(OptimalTopK.__init__) == ["self", "arr"]
    assert names(_SparseCore.scan_width) == ["self", "k"]
