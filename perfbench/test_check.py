"""Tests of the benchmark's own answer checks (check.py).

    python3 -m pytest perfbench/test_check.py
"""

import numpy as np

import check


def test_equal_priorities_go_to_the_larger_id():
    colors = np.array([0, 1, 2, 1, 3, 0])
    prio = np.array([5, 5, 3, 5])
    order = check.rank_order(prio)
    assert order.tolist() == [3, 1, 0, 2]
    assert check.scan_topk(colors, prio, order, 1, 6, 3) == ((3, 5), (1, 5), (0, 5))
    assert check.scan_topk(colors, prio, order, 2, 3, 4) == ((1, 5), (2, 3))


def test_corrupted_answers_are_caught():
    expected = ((3, 5), (1, 5), (0, 5))
    assert check.verify(expected, expected) is None
    assert check.verify([(3, 5), (1, 5), (0, 5)], expected) is None
    assert "descending" in check.verify(((1, 5), (3, 5), (0, 5)), expected)
    assert "repeated" in check.verify(((3, 5), (3, 5), (0, 5)), expected)
    assert "differs" in check.verify(((3, 5), (1, 5)), expected)
    assert "differs" in check.verify(((3, 5), (1, 5), (2, 3)), expected)


def test_document_scan_counts_overlapping_occurrences():
    corpus = check.Corpus([b"aaaa", b"ab", b"xaax"])
    assert b"aaaa".count(b"aa") == 2
    assert corpus.counts(b"aa").tolist() == [3, 0, 1]
    weights = np.array([7, 9, 7])
    order = check.rank_order(weights)
    counts = corpus.counts(b"a")
    assert check.scan_docs(counts, weights, order, 1, 5) == ((1, 9), (2, 7), (0, 7))
    assert check.scan_docs(counts, weights, order, 2, 5) == ((2, 7), (0, 7))
    assert check.scan_docs(corpus.counts(b"aa"), weights, order, 2, 5) == ((0, 7),)
