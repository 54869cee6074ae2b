import numpy as np
import pytest

from topkolors.chunked import ChunkedTopK
from topkolors.docs import merge_ranges_topk
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
    # sigma = 1 too: its core has one level and a scan width of 0
    for sigma in (9, 1):
        arr = random_array(rng, 120, sigma)
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


# N = 2^15 over 200 colors: every core's scan width at k = 1 is about 23.6k
# positions, so ranges on both sides of it fit
WIDE = random_array(np.random.default_rng(24), 1 << 15, 200)


def test_scanned_range_is_scanned_once(core_paths):
    ix = OptimalTopK(WIDE)
    w1 = ix.core.scan_width(1)
    for a, b in [(1, w1), (500, 4595), (7, 7)]:
        core_paths.clear()
        s = open_stream(ix, a, b)
        got = [x for _, x in zip(range(64), s)]
        assert got == oracle_topk(WIDE, a, b, 64)
        assert core_paths == [("_scan", ix.core, a, b)]


def test_range_at_scan_width_descends_per_request(core_paths):
    ix = OptimalTopK(WIDE)
    a = 3
    b = a + ix.core.scan_width(1)
    assert ix.core.scanned_ranks(a, b) is None
    s = open_stream(ix, a, b)
    got = [x for _, x in zip(range(64), s)]
    assert got == oracle_topk(WIDE, a, b, 64)
    # one topk per request, k = 1, 3, ..., 127, the first one a descent
    assert len(core_paths) == 7
    assert core_paths[0] == ("_descend", ix.core, a, b)


@pytest.mark.parametrize("make", [lambda arr: SparseTopK(arr, f=3),
                                  OptimalTopK, ChunkedTopK])
def test_prefix_at_every_pull_either_side_of_scan_width(make):
    ix = make(WIDE)
    w1 = ix.core.scan_width(1)
    n = WIDE.n
    for a, b in [(1, w1), (n - w1, n), (1, n), (2, 400)]:
        want = list(oracle_topk(WIDE, a, b, WIDE.sigma))
        s = open_stream(ix, a, b)
        got = []
        for pair in s:
            got.append(pair)
            assert got == want[: len(got)], (a, b, len(got))
            assert s.elements_requested <= 8 * len(got) + 16
        assert len(got) == len(want)


def test_merge_over_scanned_ranges(core_paths):
    ix = OptimalTopK(WIDE)
    n, w1 = WIDE.n, ix.core.scan_width(1)
    # four ranges the core scans at every k, and one it descends at k = 1
    scanned = [(1, 3000), (3001, 3001), (5000, 9000), (9001, n - w1 - 1)]
    wide = (n - w1, n)
    ranges = scanned + [wide]
    entries = [e for a, b in ranges for e in oracle_topk(WIDE, a, b, n)]
    entries.sort(key=lambda e: (e[1], e[0]), reverse=True)
    for k in (1, 5, 64, 300, len(entries) + 1):
        core_paths.clear()
        assert merge_ranges_topk(ix, ranges, k) == entries[:k], k
        # each scanned range once, however far its stream was pulled
        scans = [(a, b) for path, _, a, b in core_paths
                 if path == "_scan" and (a, b) != wide]
        assert sorted(scans) == scanned
