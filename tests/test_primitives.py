import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors.primitives import (
    ArgminSegtree,
    ColorCounter,
    ColorReporter,
    make_pred,
)
from topkolors.util import ceil_log2

A = [2, 0, 1, 0, 2, 1, 3, 2]


def test_make_pred():
    assert list(make_pred(A)) == [-1, -1, -1, 1, 0, 2, -1, 4]
    # values outside 16 bits take the int64 sort: no two of these may meet
    assert list(make_pred([65536, 0, 65536, -1, 65535])) == [-1, -1, 0, -1, -1]
    assert list(make_pred([-1, 65535, -1])) == [-1, -1, 0]


def test_report_canonical():
    rep = ColorReporter(A)
    assert set(rep.values[rep.positions(1, 6)]) == {0, 1, 2}
    assert set(rep.values[rep.positions(6, 7)]) == {3}
    assert set(rep.values[rep.positions(0, 8)]) == {0, 1, 2, 3}


def test_count_canonical():
    cnt = ColorCounter(A)
    assert cnt.count_range(1, 6) == 3
    assert cnt.count_range(6, 7) == 1
    assert cnt.count_range(0, 8) == 4


def test_witness_property():
    rep = ColorReporter(A)
    for a in range(1, 9):
        for b in range(a, 9):
            pos = rep.positions(a - 1, b)
            assert all(rep.pred[i] < a - 1 for i in pos)
            assert pos.tolist() == sorted(pos.tolist())


def test_argmin_leftmost_ties():
    t = ArgminSegtree([5, 3, 3, 7, 3])
    assert t.argmin(0, 5) == 1
    assert t.argmin(2, 5) == 2
    assert t.argmin(3, 4) == 3
    assert t.argmin(2, 2) == -1


def test_walk_visit_bound():
    # the walk touches O((output + 1) * log n) nodes
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 50, size=500)
    t = ArgminSegtree(vals)
    h = ceil_log2(t.size) + 1
    for thresh in (0, 5, 25, 50):
        out, visited = t.walk_below(13, 477, thresh, None)
        assert visited <= (2 * len(out) + 2) * h


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=200),
    st.data(),
)
@settings(max_examples=80)
def test_against_scans(vals, data):
    n = len(vals)
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(a, n))
    want = set(vals[a - 1 : b])
    rep = ColorReporter(vals)
    cnt = ColorCounter(vals)
    pos = rep.positions(a - 1, b)
    assert sorted(rep.values[pos].tolist()) == sorted(want)
    assert cnt.count_range(a - 1, b) == len(want)


@pytest.mark.parametrize("longer", [False, True])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_capped_count(longer, data):
    # exact up to cap; above it, any value in (cap, exact].  A longer range
    # runs past the 4 * cap + 64 positions counted first
    cap = data.draw(st.integers(0, 24))
    probe = 4 * cap + 64
    width = data.draw(st.integers(probe + 1, probe + 200) if longer
                      else st.integers(1, probe))
    n = width + data.draw(st.integers(0, 40))
    l = data.draw(st.integers(0, n - width))
    r = l + width
    # the probe and the rest draw from separate alphabets, so the probe
    # often holds cap colors or one either side of it, and the rest more
    head = data.draw(st.integers(1, cap + 2))
    tail = data.draw(st.integers(1, 3 * cap + 3))
    shift = data.draw(st.integers(0, tail))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.integers(0, tail, size=n) + shift
    vals[l : l + probe] = rng.integers(0, head, size=len(vals[l : l + probe]))
    exact = len(set(vals[l:r].tolist()))
    got = ColorCounter(vals).count_range(l, r, cap)
    if exact <= cap:
        assert got == exact
    else:
        assert cap < got <= exact
    assert ColorCounter(vals).count_range(l, r) == exact


def test_reporter_shared_across_segments():
    # two segments stored in one array, one pred over both; queries
    # confined to one segment
    vals = np.array([4, 4, 2, 9, 4, 9, 9, 2])
    pred = make_pred(vals)
    rep = ColorReporter(vals, pred=pred)
    cnt = ColorCounter(vals, pred=pred)
    # segment 1 is positions 4..7 holding [4, 9, 9, 2]
    assert set(vals[i] for i in rep.positions(4, 8)) == {4, 9, 2}
    assert set(vals[i] for i in rep.positions(5, 7)) == {9}
    assert cnt.count_range(4, 8) == 3
    assert cnt.count_range(6, 8) == 2
