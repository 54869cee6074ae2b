import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors import (
    BadParameter,
    ColorNotInSet,
    ColorOutOfRange,
    DocumentCollection,
    DocumentIndex,
    EmptyArray,
    InvalidRange,
    MissingPriority,
    OptimalTopK,
    RangeHeapMerger,
    SeparatorInContent,
    TopKError,
    merge_ranges_topk,
    new_color_array,
    oracle_distinct_count,
    oracle_topk,
    prank,
    relevance_weights,
)
from topkolors.model import ColorArray, ColorList
from topkolors.snapshot import KINDS

A = [2, 0, 1, 0, 2, 1, 3, 2]
P = {0: 4, 1: 2, 2: 7, 3: 5}


def test_topk_middle_range():
    assert oracle_topk(new_color_array(A, P), 2, 6, 2) == [(2, 7), (0, 4)]


def test_topk_whole_array_k_exceeds_distinct():
    got = oracle_topk(new_color_array(A, P), 1, 8, 10)
    assert got == [(2, 7), (3, 5), (0, 4), (1, 2)]


def test_topk_single_position():
    assert oracle_topk(new_color_array(A, P), 3, 3, 1) == [(1, 2)]


def test_distinct_counts():
    arr = new_color_array(A, P)
    assert oracle_distinct_count(arr, 2, 6) == 3
    assert oracle_distinct_count(arr, 7, 7) == 1
    assert oracle_distinct_count(arr, 1, 8) == 4


def test_prank():
    p = {0: 4, 1: 2, 2: 7}
    assert prank(1, p) == 1
    assert prank(0, p) == 2
    assert prank(2, p) == 3
    with pytest.raises(ColorNotInSet):
        prank(5, p)


def test_rank_normalization_breaks_ties_by_color_id():
    arr = new_color_array([0, 1, 2], {0: 5, 1: 5, 2: 1})
    # effective order: 2 < 0 < 1
    assert list(arr.rank_of) == [1, 2, 0]
    assert list(arr.color_of_rank) == [2, 0, 1]
    # the reported priority stays the original value
    assert oracle_topk(arr, 1, 3, 2) == [(1, 5), (0, 5)]


def test_validation_errors():
    with pytest.raises(EmptyArray):
        new_color_array([], {})
    with pytest.raises(MissingPriority):
        new_color_array([0, 1], {0: 3})
    with pytest.raises(ColorOutOfRange):
        new_color_array([0, 2], {0: 1, 2: 2})  # id 1 never appears
    with pytest.raises(ColorOutOfRange):
        new_color_array([0, -1], {0: 1})


COLL = DocumentCollection(["ab", "ba"])
INDEX = OptimalTopK(new_color_array(A, P))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: new_color_array([0, 1], None), BadParameter,
                 r"priority of color 0 is not an integer: NoneType\[0\]",
                 id="priorities-none"),
    pytest.param(lambda: new_color_array([0, 1], 5), BadParameter,
                 r"priority of color 0 is not an integer: int\[0\]",
                 id="priorities-int"),
    pytest.param(lambda: new_color_array([0, 1], np.array([5])),
                 MissingPriority, "color 1 has no priority",
                 id="priorities-short-array"),
    pytest.param(lambda: new_color_array([0, 1], (5,)), MissingPriority,
                 "color 1 has no priority", id="priorities-short-tuple"),
    pytest.param(lambda: new_color_array([0, 1], [0, 2.5]), BadParameter,
                 r"priority of color 1 is not an integer: list\[1\]",
                 id="priorities-float-entry"),
    pytest.param(lambda: DocumentIndex(COLL, 5), BadParameter,
                 r"weight of document 0 is not an integer: int\[0\]",
                 id="weights-int"),
    pytest.param(lambda: DocumentIndex(COLL, None), BadParameter,
                 r"weight of document 0 is not an integer: NoneType\[0\]",
                 id="weights-none"),
    pytest.param(lambda: DocumentIndex(COLL, [10]), MissingPriority,
                 "document 1 has no weight", id="weights-short-list"),
    pytest.param(lambda: prank(0, {0: "a"}), BadParameter,
                 "colors and priorities must be integers", id="prank-str"),
    pytest.param(lambda: prank(0, {0: 1.7, 1: 1}), BadParameter,
                 "colors and priorities must be integers", id="prank-float"),
    pytest.param(lambda: merge_ranges_topk(INDEX, None, 1), InvalidRange,
                 r"ranges must be \(a, b\) pairs", id="merge-none"),
    pytest.param(lambda: merge_ranges_topk(INDEX, [1], 1), InvalidRange,
                 r"ranges must be \(a, b\) pairs", id="merge-int-range"),
    pytest.param(lambda: merge_ranges_topk(INDEX, [(1, 2, 3)], 1),
                 InvalidRange, r"ranges must be \(a, b\) pairs",
                 id="merge-triple"),
    pytest.param(lambda: RangeHeapMerger(INDEX, [(1, 2), (4,)]),
                 InvalidRange, r"ranges must be \(a, b\) pairs",
                 id="merger-single"),
    pytest.param(lambda: RangeHeapMerger(INDEX, None), InvalidRange,
                 r"ranges must be \(a, b\) pairs", id="merger-none"),
    pytest.param(lambda: relevance_weights(COLL, ""), BadParameter,
                 "pattern must be non-empty", id="relevance-empty"),
    pytest.param(lambda: relevance_weights(COLL, "", "mindist"), BadParameter,
                 "pattern must be non-empty", id="relevance-empty-mindist"),
    pytest.param(lambda: relevance_weights(COLL, b"a\0"),
                 SeparatorInContent, "separator", id="relevance-separator"),
])
def test_hostile_inputs_raise_topk_errors(call, error, message):
    assert issubclass(error, TopKError)
    with pytest.raises(error, match=message):
        call()


def test_priority_sequences_are_read_by_index():
    # a sequence's values are not its color ids: [5, 7] gives color 0
    # priority 5, where a membership test would find no color 0
    for prio in (np.array([5, 7]), [5, 7], (5, 7)):
        arr = new_color_array([1, 0, 1], prio)
        assert arr.priority_of.tolist() == [5, 7]
        assert oracle_topk(arr, 1, 3, 2) == [(1, 7), (0, 5)]
    ix = DocumentIndex(COLL, np.array([20, 10]))
    assert ix.weights == {0: 20, 1: 10}
    assert ix.ranked_list("a", 2) == [(0, 20), (1, 10)]


def test_query_validation():
    arr = new_color_array(A, P)
    for a, b, k in [(0, 3, 1), (3, 2, 1), (1, 9, 1), (2, 6, 0)]:
        with pytest.raises(InvalidRange):
            oracle_topk(arr, a, b, k)


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"docs"}))
def test_non_integer_bounds_and_k_are_invalid_range(kind):
    arr = new_color_array(A, P)
    ix = KINDS[kind](arr)
    for a, b, k in [(1, 5, 2.5), (1.0, 5, 2), (1, "5", 2), (1, 5, None),
                    (1, 5.0, 2)]:
        with pytest.raises(InvalidRange):
            ix.topk(a, b, k)
    # numpy integers are integers
    want = oracle_topk(arr, 2, 6, 2)
    assert ix.topk(np.int64(2), np.int32(6), np.uint16(2)) == want


@st.composite
def color_arrays(draw, max_n=40, max_sigma=8):
    sigma = draw(st.integers(1, max_sigma))
    n = draw(st.integers(sigma, max_n))
    # guarantee every id appears at least once
    body = draw(st.lists(st.integers(0, sigma - 1), min_size=n - sigma,
                         max_size=n - sigma))
    colors = list(range(sigma)) + body
    draw(st.randoms()).shuffle(colors)
    prios = draw(st.lists(st.integers(1, 50), min_size=sigma, max_size=sigma))
    return new_color_array(colors, dict(enumerate(prios)))


@given(color_arrays(), st.data())
@settings(max_examples=60)
def test_oracle_matches_pure_python_reference(arr, data):
    a = data.draw(st.integers(1, arr.n))
    b = data.draw(st.integers(a, arr.n))
    k = data.draw(st.integers(1, arr.sigma + 2))
    seen = {}
    for pos in range(a - 1, b):
        c = int(arr.colors[pos])
        seen[c] = int(arr.priority_of[c])
    want = sorted(seen.items(), key=lambda cp: (cp[1], cp[0]), reverse=True)[:k]
    got = oracle_topk(arr, a, b, k)
    assert got == want
    got.check()
    assert oracle_distinct_count(arr, a, b) == len(seen)


@given(color_arrays())
@settings(max_examples=40)
def test_ranks_are_a_permutation(arr):
    assert sorted(arr.rank_of) == list(range(arr.sigma))
    assert all(arr.rank_of[arr.color_of_rank[r]] == r for r in range(arr.sigma))
    # higher rank means higher (priority, id) key
    keys = [(int(arr.priority_of[c]), c) for c in arr.color_of_rank]
    assert keys == sorted(keys)
    r = arr.ranks
    # uint16 up to sigma = 2^16, int32 past it
    assert r.dtype == np.uint16 and len(r) == arr.n
    assert (arr.rank_of[arr.colors] == r).all()


@pytest.mark.parametrize("sigma, dtype", [(1 << 16, np.uint16),
                                          ((1 << 16) + 1, np.int32)])
def test_rank_dtype_follows_sigma(sigma, dtype):
    rng = np.random.default_rng(sigma)
    colors = np.concatenate([np.arange(sigma), rng.integers(0, sigma, 999)])
    rng.shuffle(colors)
    # priority ties, so ranks follow (priority, color id)
    arr = ColorArray(colors.astype(np.int32), rng.integers(0, 50, sigma))
    assert arr.ranks.dtype == dtype and arr.n == len(colors)
    assert arr.colors.dtype == np.int32
    assert np.array_equal(arr.colors, colors)
    assert np.array_equal(arr.ranks, arr.rank_of[colors])
    assert int(arr.ranks.max()) == sigma - 1


def test_values_outside_int64_are_topk_errors():
    for p in (2**63, -(2**63) - 1):
        with pytest.raises(BadParameter):
            new_color_array([0], {0: p})
    assert new_color_array([0], {0: 2**63 - 1}).priority_of[0] == 2**63 - 1
    with pytest.raises(ColorOutOfRange):
        new_color_array([0, 2**63], {0: 1, 1: 2})


def test_non_integer_priority_is_bad_parameter():
    for bad in ("x", None, [1], 2.5, np.float64(3.5), "5"):
        with pytest.raises(BadParameter):
            new_color_array([0, 1], {0: 1, 1: bad})
    assert new_color_array([0, 1], {0: 1, 1: np.int8(5)}).priority_of[1] == 5


def test_non_integer_color_ids_are_color_out_of_range():
    for colors in ([0, 1.7, 1], [0.0, 1.0], np.array([0, 1], dtype=np.float32),
                   [False, True], [0, "1"], [[0, 1], [1, 0]], [[0], [1, 0]]):
        with pytest.raises(ColorOutOfRange):
            new_color_array(colors, {0: 1, 1: 2})
    arr = new_color_array(np.array([1, 0, 1], dtype=np.uint8), {0: 1, 1: 2})
    assert arr.colors.tolist() == [1, 0, 1]


def test_list_from_ranks_gives_python_ints():
    arr = new_color_array(A, P)
    got = arr.list_from_ranks([3, 1])
    assert got == [(2, 7), (0, 4)]
    assert all(type(v) is int for entry in got for v in entry)
    assert arr.list_from_ranks([]) == []


def test_color_list_equals_only_sequences_of_pairs():
    got = ColorList([(1, 2), (0, 1)])
    assert got == [(1, 2), (0, 1)]
    assert got == ((1, 2), [0, 1])
    assert got == ColorList([(1, 2), (0, 1)])
    assert got != [(1, 2)]
    # not a sequence of pairs: unequal, never a TypeError
    for other in (5, None, [1], [1, 2], "ab", [(1, 2, 3), (0, 1, 2)], object()):
        assert not got == other
        assert got != other
        assert not other == got
    assert ColorList([]) == []
    assert ColorList([]) != None  # noqa: E711
