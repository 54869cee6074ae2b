import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors.bits import RankSelectBits
from topkolors.errors import OutOfBounds


def test_small_example():
    bv = RankSelectBits([1, 0, 1, 1, 0])
    assert bv.rank1(3) == 2
    assert 5 - bv.rank1(5) == 2
    assert bv.rank1(0) == 0
    # bit i (0-based) is the step rank1(i + 1) - rank1(i)
    assert [bv.rank1(i + 1) - bv.rank1(i) for i in range(5)] == [1, 0, 1, 1, 0]


def test_bounds():
    bv = RankSelectBits([1, 0, 1])
    with pytest.raises(OutOfBounds):
        bv.rank1(4)
    with pytest.raises(OutOfBounds):
        bv.rank1(-1)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
@settings(max_examples=80)
def test_against_naive(bits):
    bv = RankSelectBits(bits)
    pref = np.concatenate([[0], np.cumsum(bits)])
    for i in range(len(bits) + 1):
        assert bv.rank1(i) == pref[i]


def test_word_boundaries():
    # lengths straddling the 64-bit word size
    for n in (63, 64, 65, 128, 129):
        bits = [(i * 7) % 3 == 0 for i in range(n)]
        bv = RankSelectBits(bits)
        assert bv.rank1(n) == sum(bits)
        for i in (n - 1, 63, 64, 65):
            if i <= n:
                assert bv.rank1(i) == sum(bits[:i])


def reference_words(bits):
    """Bit i at bit i % 64 of word i // 64, by a shift-sum per word."""
    n = len(bits)
    nwords = (n + 63) // 64 if n else 1
    padded = np.zeros(nwords * 64, dtype=np.uint64)
    padded[:n] = bits
    shifts = np.arange(64, dtype=np.uint64)
    return (padded.reshape(nwords, 64) << shifts).sum(axis=1, dtype=np.uint64)


@pytest.mark.parametrize("n", [0, 1, 64, 100, 129, 1000])
def test_words_match_reference_packing(n):
    bits = np.random.default_rng(n).integers(0, 2, size=n)
    bv = RankSelectBits(bits)
    want = reference_words(bits)
    assert bv._words.tolist() == want.tolist()
    assert bv.rank1(n) == int(bits.sum())
