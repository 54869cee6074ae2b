import numpy as np
import pytest

from topkolors import docs as docs_module
from topkolors.docs import (
    DocumentCollection,
    DocumentIndex,
    RangeHeapMerger,
    build_suffix_array,
    merge_ranges_topk,
    naive_ranked_list,
    naive_suffix_array,
    naive_t_mine,
    relevance_weights,
)
from topkolors.errors import (
    BadParameter,
    EmptyArray,
    MissingPriority,
    OverlappingRanges,
    SeparatorInContent,
    UnsupportedT,
)
from topkolors.model import new_color_array, oracle_topk
from topkolors.optimal import OptimalTopK
from topkolors.sparse import _SparseCore
from topkolors.util import nbits


def test_suffix_array_matches_naive_random():
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 50, 200):
        for _ in range(4):
            text = bytes(rng.integers(0, 4, size=n).astype(np.uint8))
            got = [int(v) for v in build_suffix_array(text)]
            assert got == naive_suffix_array(text), text


def test_two_doc_worked_example():
    coll = DocumentCollection(["ab", "ba"])
    assert coll.text == b"ab\x00ba\x00"
    assert [int(v) for v in build_suffix_array(coll.text)] == [5, 2, 4, 0, 1, 3]
    ix = DocumentIndex(coll, {0: 3, 1: 9})
    # slots in suffix order carry owning docs, separators the dummy color
    assert [int(c) for c in ix.arr.colors] == [2, 2, 1, 0, 0, 1]
    assert ix.pattern_range("a") == (3, 4)
    assert ix.pattern_range("b") == (5, 6)
    assert ix.pattern_range("ab") == (4, 4)
    assert ix.pattern_range("ba") == (6, 6)
    assert ix.pattern_range("c") is None
    assert ix.ranked_list("a", 2) == [(1, 9), (0, 3)]
    assert ix.ranked_list("ab", 2) == [(0, 3)]
    assert ix.ranked_list("c", 3) == []


def test_ranked_list_three_docs():
    coll = DocumentCollection(["abab", "bab", "ca"])
    ix = DocumentIndex(coll, {0: 3, 1: 9, 2: 5})
    assert ix.ranked_list("ab", 2) == [(1, 9), (0, 3)]
    assert ix.ranked_list("ab", 1) == [(1, 9)]
    assert ix.ranked_list("ca", 3) == [(2, 5)]
    assert ix.ranked_list("bab", 3) == [(1, 9), (0, 3)]


def test_t_mine_worked_example():
    coll = DocumentCollection(["ababab", "abba"])
    ix = DocumentIndex(coll, {0: 2, 1: 6})
    assert ix.t_values == [1, 2, 4]
    assert ix.t_mine("ab", 1, 2) == [(1, 6), (0, 2)]
    assert ix.t_mine("ab", 2, 5) == [(0, 2)]
    assert ix.t_mine("ab", 4, 5) == []
    assert ix.t_mine("b", 2, 5) == [(1, 6), (0, 2)]
    # above every document length: trivially empty, no threshold needed
    assert ix.t_mine("ab", 7, 1) == []
    with pytest.raises(UnsupportedT):
        ix.t_mine("ab", 3, 1)


def test_custom_t_values():
    coll = DocumentCollection(["ababab", "abba"])
    ix = DocumentIndex(coll, {0: 2, 1: 6}, t_values=[1, 3])
    assert ix.t_mine("ab", 3, 2) == [(0, 2)]
    with pytest.raises(UnsupportedT):
        ix.t_mine("ab", 2, 1)
    with pytest.raises(BadParameter):
        DocumentIndex(coll, {0: 2, 1: 6}, t_values=[0])


def test_bad_t_values_raise_before_anything_is_built(monkeypatch):
    def fail(text):
        raise AssertionError("suffix array built before t_values were checked")

    monkeypatch.setattr(docs_module, "build_suffix_array", fail)
    coll = DocumentCollection(["abab", "ba"])
    for t_values in (["x"], [None], [1.5], [2, 0], [-3], 4):
        with pytest.raises(BadParameter):
            DocumentIndex(coll, {0: 2, 1: 6}, t_values=t_values)


def test_input_validation():
    with pytest.raises(EmptyArray):
        DocumentCollection([])
    with pytest.raises(EmptyArray):
        DocumentCollection(["ok", ""])
    with pytest.raises(SeparatorInContent):
        DocumentCollection([b"a\x00b"])
    coll = DocumentCollection(["abc"])
    ix = DocumentIndex(coll, {0: 1})
    with pytest.raises(BadParameter):
        ix.ranked_list("", 1)
    with pytest.raises(SeparatorInContent):
        ix.ranked_list(b"a\x00", 1)
    with pytest.raises(BadParameter):
        ix.ranked_list("a", 0)
    with pytest.raises(BadParameter):
        ix.t_mine("a", 0, 1)
    # only str, bytes-like objects and byte values are text; an int would
    # otherwise be read by bytes() as a length
    for bad in (4, -1, 3.5, None, True, "\udcff", [300], ["a"]):
        with pytest.raises(BadParameter):
            ix.ranked_list(bad, 1)
        with pytest.raises(BadParameter):
            DocumentCollection([bad])
    # a lone text is not a collection, nor is anything not iterable
    for bad in ("ab", b"ab", bytearray(b"ab"), memoryview(b"ab"), 5, None):
        with pytest.raises(BadParameter):
            DocumentCollection(bad)
    for pattern in ([97], bytearray(b"a"), memoryview(b"bc"),
                    np.array([99], dtype=np.uint8)):
        assert ix.ranked_list(pattern, 1) == [(0, 1)]
    for doc in (5, -1, 1.0, "1", None):
        with pytest.raises(BadParameter):
            ix.occurrence_count(doc, "a")
    assert ix.occurrence_count(np.int64(0), "a") == 1
    assert ix.occurrence_count(np.uint8(0), "c") == 1


def random_collection(rng, num_docs, max_len, alphabet=b"ab"):
    docs = []
    for _ in range(num_docs):
        length = int(rng.integers(1, max_len + 1))
        docs.append(bytes(alphabet[int(i)] for i in rng.integers(0, len(alphabet), length)))
    return DocumentCollection(docs)


def all_patterns(coll, max_len):
    pats = set()
    for d in coll.docs:
        for i in range(len(d)):
            for m in range(1, max_len + 1):
                if i + m <= len(d):
                    pats.add(d[i : i + m])
    return sorted(pats)


def test_pattern_range_exhaustive_small():
    rng = np.random.default_rng(32)
    coll = random_collection(rng, 5, 8)
    ix = DocumentIndex(coll, {j: j + 1 for j in range(5)})
    sa = [int(v) for v in ix.suffix_array]
    text = coll.text
    for p in all_patterns(coll, 3) + [b"zz", b"aaaaaaaaaa"]:
        starts = {i for i in range(len(text)) if text[i : i + len(p)] == p}
        rng_got = ix.pattern_range(p)
        if not starts:
            assert rng_got is None
            continue
        a, b = rng_got
        assert {sa[i - 1] for i in range(a, b + 1)} == starts


def test_occurrence_count_matches_scan():
    rng = np.random.default_rng(33)
    for num_docs, max_len, alphabet in ((6, 12, b"ab"), (40, 30, b"abc")):
        coll = random_collection(rng, num_docs, max_len, alphabet)
        ix = DocumentIndex(coll, {j: 10 * j for j in range(num_docs)})
        for p in all_patterns(coll, 3):
            for j in range(num_docs):
                assert ix.occurrence_count(j, p) == coll.count_occurrences(j, p)


def test_t_mine_matches_naive_exhaustive():
    rng = np.random.default_rng(34)
    # six small corpora over "ab", then four of 40 documents over "abc"
    shapes = [(8, 14, b"ab")] * 6 + [(40, 60, b"abc")] * 4
    for trial, (s, max_len, alphabet) in enumerate(shapes):
        coll = random_collection(rng, s, max_len, alphabet)
        weights = {j: int(w) for j, w in enumerate(rng.permutation(s) * 3)}
        ix = DocumentIndex(coll, weights)
        for p in all_patterns(coll, 2):
            for t in ix.t_values:
                for k in (1, 3, 8, 16, 1024):
                    got = ix.t_mine(p, t, k)
                    assert got == naive_t_mine(coll, weights, p, t, k), (
                        trial, p, t, k,
                    )
            for k in (1, 4):
                assert ix.ranked_list(p, k) == naive_ranked_list(
                    coll, weights, p, k
                )


def wide_index(seed):
    """About 62k slots over "ab": the one-letter patterns span about 31k
    slots, past what the main core scans at k <= 16 but not at k = 1024."""
    rng = np.random.default_rng(seed)
    coll = random_collection(rng, 400, 300, b"ab")
    weights = {j: int(w) for j, w in enumerate(rng.integers(0, 50, 400))}
    return coll, weights, DocumentIndex(coll, weights)


def test_t_mine_scans_the_range_past_the_main_core_scan_width(monkeypatch,
                                                              core_paths):
    coll, weights, ix = wide_index(41)
    core = ix.index.core
    calls = []
    topk_ranks = _SparseCore.topk_ranks

    def spy(self, *args):
        calls.append((self, *args))
        return topk_ranks(self, *args)

    # t_mine's work runs in topk_ranks, the core method the tracer times
    monkeypatch.setattr(_SparseCore, "topk_ranks", spy)
    past = set()
    for p in (b"a", b"b", b"ab", b"bab", b"abba", b"aabab"):
        a, b = ix.pattern_range(p)
        for t in ix.t_values[1:]:
            for k in (1, 16, 1024):
                past.add(b - a >= core.scan_width(k))
                calls.clear()
                core_paths.clear()
                assert ix.t_mine(p, t, k) == naive_t_mine(
                    coll, weights, p, t, k), (p, t, k)
                assert calls == [(core, a, b, k, t)]
                assert core_paths == [("_scan", core, a, b)]
    # ranked_list would descend on some of these ranges, not on others
    assert past == {True, False}


def test_unbuilt_t_is_unsupported_on_a_scanned_range():
    coll, weights, _ = wide_index(41)
    ix = DocumentIndex(coll, weights, t_values=[1, 2, 4])
    for t in (3, 8):
        with pytest.raises(UnsupportedT):
            ix.t_mine(b"abba", t, 16)
    assert ix.t_mine(b"abba", 4, 16) == naive_t_mine(coll, weights, b"abba", 4, 16)


def test_non_integer_k_and_t_are_bad_parameter():
    ix = DocumentIndex(DocumentCollection(["ababab", "abba"]), {0: 2, 1: 6})
    for k in ("1", 1.0, 2.5, None):
        with pytest.raises(BadParameter):
            ix.ranked_list("ab", k)
        with pytest.raises(BadParameter):
            ix.t_mine("ab", 2, k)
    for t in ("2", 2.0, None):
        with pytest.raises(BadParameter):
            ix.t_mine("ab", t, 1)
    # numpy integers are integers
    assert ix.ranked_list("ab", np.int64(1)) == [(1, 6)]
    assert ix.t_mine("ab", np.int32(2), np.uint8(2)) == [(0, 2)]


def test_t_mine_equal_weights_tie_break():
    coll = DocumentCollection(["aa", "aa", "aa"])
    ix = DocumentIndex(coll, {0: 5, 1: 5, 2: 5})
    assert ix.t_mine("a", 2, 3) == [(2, 5), (1, 5), (0, 5)]
    assert ix.ranked_list("aa", 2) == [(2, 5), (1, 5)]


def test_relevance_weights_fixture():
    coll = DocumentCollection(["abab", "axxab", "b"])
    assert relevance_weights(coll, "ab", "freq") == {0: 2, 1: 1, 2: 0}
    # closest pair in doc 0 sits 2 apart; docs without a pair score 0
    assert relevance_weights(coll, "ab", "mindist") == {0: 4, 1: 0, 2: 0}
    with pytest.raises(BadParameter):
        relevance_weights(coll, "ab", "nope")


MERGE_ARR = new_color_array(
    [0, 1, 2, 3, 4, 5], {0: 5, 1: 1, 2: 9, 3: 2, 4: 7, 5: 3}
)


def test_merger_worked_example():
    ix = OptimalTopK(MERGE_ARR)
    got = merge_ranges_topk(ix, [(1, 2), (3, 4), (5, 6)], 3)
    assert got == [(2, 9), (4, 7), (0, 5)]
    assert [p for _, p in got] == [9, 7, 5]


def test_merger_keeps_duplicates_across_ranges():
    arr = new_color_array([0, 0], {0: 7})
    ix = OptimalTopK(arr)
    assert merge_ranges_topk(ix, [(1, 1), (2, 2)], 2) == [(0, 7), (0, 7)]


def test_merger_validates_overlap():
    ix = OptimalTopK(MERGE_ARR)
    with pytest.raises(OverlappingRanges):
        RangeHeapMerger(ix, [(1, 3), (3, 5)])
    with pytest.raises(OverlappingRanges):
        RangeHeapMerger(ix, [(4, 6), (1, 4)])
    # disjoint but unsorted input is fine
    assert merge_ranges_topk(ix, [(5, 6), (1, 2)], 2) == [(4, 7), (0, 5)]


def test_merger_matches_flatten_oracle():
    rng = np.random.default_rng(35)
    raw = rng.integers(0, 12, size=80)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    arr = new_color_array(dense, {c: int(p) for c, p in enumerate(rng.integers(0, 9, sig))})
    ix = OptimalTopK(arr)
    for _ in range(40):
        cuts = sorted(rng.choice(np.arange(1, 81), size=6, replace=False))
        ranges = []
        pos = 1
        for c in cuts:
            if pos <= c - 1:
                ranges.append((pos, c - 1))
            pos = c + 1
        if not ranges:
            continue
        for k in (1, 2, 5, 30):
            flat = []
            for a, b in ranges:
                flat.extend(oracle_topk(arr, a, b, 80))
            flat.sort(key=lambda e: (e[1], e[0]), reverse=True)
            assert merge_ranges_topk(ix, ranges, k) == flat[:k], (ranges, k)


def test_merger_seeding_discards_low_heads():
    ix = OptimalTopK(MERGE_ARR)
    # five singleton ranges, only two seats: heads 9 and 7 win
    got = merge_ranges_topk(ix, [(1, 1), (2, 2), (3, 3), (5, 5), (6, 6)], 2)
    assert got == [(2, 9), (4, 7)]


def test_weights_outside_int64_are_bad_parameter():
    coll = DocumentCollection(["ab", "ba"])
    # the separator dummy sits at min - 1, which -2^63 pushes out of int64
    for weights in ({0: -(2**63), 1: 2}, {0: 2**63, 1: 2}):
        with pytest.raises(BadParameter):
            DocumentIndex(coll, weights)
    ix = DocumentIndex(coll, {0: -(2**63) + 1, 1: 2**63 - 1})
    assert ix.ranked_list("a", 2) == [(1, 2**63 - 1), (0, -(2**63) + 1)]


def test_missing_weight_is_missing_priority():
    with pytest.raises(MissingPriority):
        DocumentIndex(DocumentCollection(["ab", "ba"]), {0: 1})


def test_non_integer_weight_is_bad_parameter():
    for bad in ("x", None, 2.5, np.float64(3.5), "5"):
        with pytest.raises(BadParameter):
            DocumentIndex(DocumentCollection(["ab", "ba"]), {0: 1, 1: bad})
    ix = DocumentIndex(DocumentCollection(["ab", "ba"]), {0: 1, 1: np.int8(5)})
    assert ix.weights == {0: 1, 1: 5}


def test_narrow_patterns_match_naive(core_paths):
    # marker "Q" + two upper-case letters occurs exactly occ times, spread
    # over random documents of a-d; 300 documents give 301 colors and a
    # root with 64 children, so up to 64 occurrences is the scan's side
    rng = np.random.default_rng(35)
    base = random_collection(rng, 300, 24, b"abcd")
    docs = [bytearray(d) for d in base.docs]
    markers = {}
    for occ in range(1, 67):
        m = markers[occ] = b"Q" + bytes([65 + occ // 26, 65 + occ % 26])
        for j in rng.integers(0, 300, occ):
            docs[j] += m
    coll = DocumentCollection([bytes(d) for d in docs])
    weights = {j: int(w) for j, w in enumerate(rng.integers(0, 50, 300))}
    ix = DocumentIndex(coll, weights, t_values=[1, 2])
    core = ix.index._global
    assert 1 << core.levels[1] == 64
    for occ, p in markers.items():
        a, b = ix.pattern_range(p)
        assert b - a + 1 == occ
        for k in (1, 4, 300):
            core_paths.clear()
            assert ix.ranked_list(p, k) == naive_ranked_list(
                coll, weights, p, k)
            if occ <= 64:
                assert core_paths == [("_scan", core, a, b)]
            for t in (1, 2):
                assert ix.t_mine(p, t, k) == naive_t_mine(
                    coll, weights, p, t, k), (p, t, k)


def test_measured_bits_counts_every_held_array_once(held_bits):
    rng = np.random.default_rng(61)
    coll = random_collection(rng, 40, 30, b"abc")
    weights = {j: int(w) for j, w in enumerate(rng.integers(0, 9, 40))}
    ix = DocumentIndex(coll, weights)
    # the collection is the caller's input, not part of the index
    assert ix.measured_bits() == held_bits(ix, ix.collection)


def test_suffix_array_alphabets_lengths_and_periods():
    rng = np.random.default_rng(36)
    texts = [b"ab" * 400, b"a" * 1000, bytes(range(256)) * 3]
    for sigma in (1, 2, 27, 256):
        symbols = rng.choice(256, sigma, replace=False).astype(np.uint8)
        # every n up to 9 is shorter than the packed first key (h >= 7)
        for n in range(1, 10):
            for _ in range(3):
                texts.append(bytes(rng.choice(symbols, n)))
        # every symbol present, so the key packs exactly sigma symbols
        texts.append(bytes(rng.permutation(
            np.concatenate([symbols, rng.choice(symbols, 300)]))))
    for text in texts:
        got = build_suffix_array(text)
        assert got.dtype == np.int32
        assert got.tolist() == naive_suffix_array(text), text


def test_t_mine_one_is_ranked_list():
    rng = np.random.default_rng(37)
    for _ in range(4):
        coll = random_collection(rng, 12, 16, b"abc")
        weights = {j: int(w) for j, w in enumerate(rng.integers(0, 5, 12))}
        ix = DocumentIndex(coll, weights)
        assert 1 in ix.t_values
        for p in all_patterns(coll, 2):
            for k in (1, 3, 12):
                got = ix.t_mine(p, 1, k)
                assert got == ix.ranked_list(p, k)
                assert got == naive_t_mine(coll, weights, p, 1, k)
    ix = DocumentIndex(DocumentCollection(["ababab", "abba"]), {0: 2, 1: 6},
                       t_values=[2, 4])
    with pytest.raises(UnsupportedT):
        ix.t_mine("ab", 1, 1)
    assert ix.t_mine("ab", 2, 2) == [(0, 2)]


def test_slot_arrays_are_int32():
    rng = np.random.default_rng(38)
    ix = DocumentIndex(random_collection(rng, 30, 40, b"abc"),
                       {j: j for j in range(30)})
    assert ix.suffix_array.dtype == np.int32


def test_color_arrays_count_16_bits_per_element():
    # the main array holds uint16 ranks, not int32 colors
    rng = np.random.default_rng(39)
    ix = DocumentIndex(random_collection(rng, 30, 40, b"abc"),
                       {j: j % 4 for j in range(30)})
    arr = ix.arr
    per_color = nbits(arr.priority_of, arr.rank_of, arr.color_of_rank)
    assert arr.sigma <= 1 << 16
    assert docs_module._color_array_bits(arr) - per_color == 16 * arr.n


def test_measured_bits_bound():
    # this corpus read 553.1 bits/element with a t = 1 anchor set and
    # int64 slot arrays, 296.1 without
    rng = np.random.default_rng(62)
    coll = random_collection(rng, 300, 200, b"abcd")
    weights = {j: int(w) for j, w in enumerate(rng.integers(0, 100, 300))}
    ix = DocumentIndex(coll, weights)
    assert ix.measured_bits() / ix.n <= 320

