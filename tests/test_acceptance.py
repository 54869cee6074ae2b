"""End-to-end acceptance checks.

The structures make asymptotic promises, so acceptance is property-based:
exact agreement with independent oracles on exhaustive and random inputs,
plus scaling smoke checks with explicit tolerances. Each test finishes by
printing one "criterion N: PASS ..." line; a failed assert is the FAIL
side of that line.

Tolerances, stated up front:
  1. zero mismatches, whole check under 300 s
  2. zero violations over 100,000 queries
  3. zero violations over 1,000 streams, work counter <= 8k + 16
  4. per-reported-color median at K=4096 <= 3x the K=64 median, under 120 s
  5. bits/element ratio <= 2x across a 16x size jump, <= 4x across a 64x
     alphabet jump
  6. zero mismatches over 1,000 patterns
  7. zero mismatches over 1,000 merge instances
  8. full-size build under 60 s, doubling ratio <= 3x
"""

import itertools
import statistics
import time

import numpy as np
import pytest

from topkolors import (
    ChunkedTopK,
    DocumentCollection,
    DocumentIndex,
    OptimalTopK,
    SparseTopK,
    WaveletTopK,
    merge_ranges_topk,
    new_color_array,
    open_stream,
    save_index,
)
from topkolors.cli import main as cli_main
from topkolors.docs import naive_ranked_list, naive_t_mine
from topkolors.model import oracle_distinct_count, oracle_topk

VARIANTS = [
    ("wavelet", WaveletTopK),
    ("sparse-f2", lambda arr: SparseTopK(arr, f=2)),
    ("sparse-f3", lambda arr: SparseTopK(arr, f=3)),
    ("optimal", OptimalTopK),
    ("chunked", ChunkedTopK),
]


def random_dense_array(rng, n, sigma, distinct_prio=True):
    """Array of length n using every color in [0, sigma)."""
    colors = rng.integers(0, sigma, size=n)
    plant = rng.choice(n, size=sigma, replace=False)
    colors[plant] = rng.permutation(sigma)
    if distinct_prio:
        vals = rng.permutation(sigma * 4)[:sigma]
    else:
        vals = rng.integers(0, max(1, 2 * sigma), size=sigma)
    prio = {c: int(v) for c, v in enumerate(vals)}
    return new_color_array(colors, prio)


def surjective_tuples(sigma, n):
    for tup in itertools.product(range(sigma), repeat=n):
        if len(set(tup)) == sigma:
            yield tup


def k_values(sigma, n):
    return sorted({1, 2, max(1, sigma // 2), n})


@pytest.fixture(scope="module")
def big_optimal():
    """Shared full-size instance: N = 2**20, sigma = 2**10.

    Returns (index, build_seconds, make_array) where make_array rebuilds
    the same flavor of input at any size for the doubling check.
    """
    rng = np.random.default_rng(20260801)

    def make_array(n, sigma=1 << 10):
        return random_dense_array(rng, n, sigma)

    arr = make_array(1 << 20)
    t0 = time.perf_counter()
    index = OptimalTopK(arr)
    build_seconds = time.perf_counter() - t0
    return index, build_seconds, make_array


def test_criterion_1_oracle_equivalence_exhaustive_and_random():
    t_start = time.perf_counter()
    # Exhaustive half: every surjective array for each (sigma, max n)
    # family, checked on every (a, b) pair against the scan oracle.
    families = [(1, range(1, 25)), (2, range(2, 9)), (4, range(4, 6))]
    instances = 0
    queries = 0
    for sigma, n_range in families:
        for n in n_range:
            for tup in surjective_tuples(sigma, n):
                # Alternate a distinct-priority map with one full of ties.
                if instances % 2 == 0:
                    prio = {c: (5 * c + 2) % 13 for c in range(sigma)}
                else:
                    prio = {c: c // 2 for c in range(sigma)}
                arr = new_color_array(list(tup), prio)
                built = [(name, make(arr)) for name, make in VARIANTS]
                ks = k_values(sigma, n)
                for a in range(1, n + 1):
                    for b in range(a, n + 1):
                        full = list(oracle_topk(arr, a, b, n))
                        for k in ks:
                            want = full[:k]
                            for name, index in built:
                                got = index.topk(a, b, k)
                                assert got == want, (
                                    f"{name} n={n} sigma={sigma} tup={tup} "
                                    f"a={a} b={b} k={k}: "
                                    f"{list(got)} != {want}"
                                )
                                queries += 1
                instances += 1
    assert instances <= 10_000
    exhaustive_instances = instances

    # Random half: larger arrays, one variant per array (rotating), a
    # sample of ranges per array instead of all ~n^2/2 pairs.
    rng = np.random.default_rng(20260817)
    for i in range(1000):
        n = int(rng.integers(1, 513))
        sigma = int(rng.integers(1, min(n, 64) + 1))
        arr = random_dense_array(rng, n, sigma, distinct_prio=bool(i % 3))
        name, make = VARIANTS[i % len(VARIANTS)]
        index = make(arr)
        ks = k_values(sigma, n)
        pairs = [(1, n)]
        for _ in range(40):
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(a, n + 1))
            pairs.append((a, b))
        for a, b in pairs:
            full = list(oracle_topk(arr, a, b, n))
            for k in ks:
                got = index.topk(a, b, k)
                assert got == full[:k], (
                    f"{name} random #{i} n={n} sigma={sigma} "
                    f"a={a} b={b} k={k}"
                )
                queries += 1

    elapsed = time.perf_counter() - t_start
    assert elapsed < 300.0
    print(
        f"criterion 1: PASS oracle equivalence, "
        f"{exhaustive_instances} exhaustive + 1000 random instances, "
        f"{queries} queries, 0 mismatches, {elapsed:.1f}s (< 300s)"
    )


def test_criterion_2_sortedness_and_distinctness():
    rng = np.random.default_rng(2222)
    queries = 0
    for _ in range(20):
        n = int(rng.integers(8, 513))
        sigma = int(rng.integers(1, min(n, 64) + 1))
        # Distinct priorities so "strictly priority-descending" is the
        # exact invariant (with ties only the (priority, color) key is
        # strictly ordered; tie order is pinned by criterion 1).
        arr = random_dense_array(rng, n, sigma, distinct_prio=True)
        built = [(name, make(arr)) for name, make in VARIANTS]
        for name, index in built:
            for _ in range(1000):
                a = int(rng.integers(1, n + 1))
                b = int(rng.integers(a, n + 1))
                k = int(rng.integers(1, n + 2))
                res = index.topk(a, b, k)
                res.check()
                prios = [p for _, p in res]
                assert all(
                    prios[i] > prios[i + 1] for i in range(len(prios) - 1)
                ), f"{name}: not strictly descending"
                colors = [c for c, _ in res]
                assert len(set(colors)) == len(colors), f"{name}: repeat"
                distinct = oracle_distinct_count(arr, a, b)
                assert len(res) == min(k, distinct), (
                    f"{name} a={a} b={b} k={k}: "
                    f"len {len(res)} != min({k}, {distinct})"
                )
                queries += 1
    assert queries == 100_000
    print(
        f"criterion 2: PASS sortedness/distinctness/length on "
        f"{queries} queries, 0 violations"
    )


def test_criterion_3_online_prefix_property():
    rng = np.random.default_rng(3333)
    streams = 0
    for n in (64, 256, 512, 1024, 2048):
        sigma = int(rng.integers(2, 33))
        arr = random_dense_array(rng, n, sigma, distinct_prio=True)
        index = OptimalTopK(arr)
        for _ in range(200):
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(a, n + 1))
            full = list(oracle_topk(arr, a, b, n))
            stream = open_stream(index, a, b)
            emitted = []
            for item in stream:
                emitted.append(item)
                k = len(emitted)
                # Prefix property at every k, against the oracle ranking.
                assert emitted == full[:k], f"prefix broken at k={k}"
                # Instrumented work bound.
                assert stream.elements_requested <= 8 * k + 16, (
                    f"work {stream.elements_requested} > 8*{k}+16"
                )
            assert len(emitted) == oracle_distinct_count(arr, a, b)
            # Spot-check the stream against the fixed-k entry point too.
            d = len(emitted)
            for k in sorted({1, max(1, d // 2), max(1, d)}):
                assert emitted[:k] == list(index.topk(a, b, k))
            streams += 1
    assert streams == 1000
    print(
        f"criterion 3: PASS online prefix + work bound (<= 8k+16) on "
        f"{streams} streams, 0 violations"
    )


def test_criterion_4_per_color_time_scaling(big_optimal):
    index, _, _ = big_optimal
    t_start = time.perf_counter()
    n = index.n
    rng = np.random.default_rng(4444)
    ranges = []
    for _ in range(120):
        a = int(rng.integers(1, n // 2 + 1))
        b = int(rng.integers(a + n // 4, n + 1))
        ranges.append((a, b))

    def median_per_color(k):
        per = []
        for a, b in ranges:
            t0 = time.perf_counter()
            res = index.topk(a, b, k)
            dt = time.perf_counter() - t0
            per.append(dt / len(res))
        return statistics.median(per)

    for a, b in ranges:  # warm pass, not timed
        index.topk(a, b, 64)
        index.topk(a, b, 4096)
    small = median_per_color(64)
    large = median_per_color(4096)
    elapsed = time.perf_counter() - t_start
    assert large <= 3.0 * small, (
        f"per-color time grew with K: {large * 1e6:.2f}us vs "
        f"{small * 1e6:.2f}us per color"
    )
    assert elapsed < 120.0
    print(
        f"criterion 4: PASS per-color median {large * 1e6:.2f}us @K=4096 vs "
        f"{small * 1e6:.2f}us @K=64, ratio "
        f"{large / small:.2f} (<= 3.0), {elapsed:.1f}s (< 120s)"
    )


def test_criterion_5_space_trend_via_stats(tmp_path, capsys):
    rng = np.random.default_rng(5555)

    def bits_per_element(n, sigma):
        arr = random_dense_array(rng, n, sigma)
        index = ChunkedTopK(arr)
        path = tmp_path / f"chunked-{n}-{sigma}.idx"
        save_index(str(path), index)
        rc = cli_main(["stats", "--snapshot", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("#stat bits_per_element="):
                return float(line.split("=", 1)[1])
        raise AssertionError(f"no bits_per_element stat in:\n{out}")

    base_n = bits_per_element(1 << 12, 16)
    grown_n = bits_per_element(1 << 16, 16)
    assert grown_n <= 2.0 * base_n, (
        f"space grew with n: {grown_n:.2f} vs {base_n:.2f} bits/element"
    )
    small_sigma = bits_per_element(1 << 16, 4)
    big_sigma = bits_per_element(1 << 16, 256)
    assert big_sigma <= 4.0 * small_sigma, (
        f"space blew up with sigma: {big_sigma:.2f} vs {small_sigma:.2f}"
    )
    print(
        f"criterion 5: PASS bits/element n-sweep {base_n:.1f} -> "
        f"{grown_n:.1f} (<= 2x), sigma-sweep {small_sigma:.1f} -> "
        f"{big_sigma:.1f} (<= 4x)"
    )


def test_criterion_6_document_retrieval_oracle_equivalence():
    rng = np.random.default_rng(6666)
    patterns_checked = 0
    for _ in range(8):
        s = int(rng.integers(4, 33))
        cap = 3800 // s
        docs = []
        total = 0
        for _ in range(s):
            length = int(rng.integers(1, max(2, cap)))
            length = min(length, 4096 - 32 - total)
            length = max(length, 1)
            docs.append(rng.integers(97, 100, size=length)
                        .astype(np.uint8).tobytes())
            total += length
        assert total + s <= 4096
        weights = {j: int(w) for j, w in
                   enumerate(rng.integers(0, 3 * s, size=s))}
        coll = DocumentCollection(docs)
        dix = DocumentIndex(coll, weights)
        for _ in range(125):
            if rng.random() < 0.5:
                doc = docs[int(rng.integers(0, s))]
                length = int(rng.integers(1, min(6, len(doc)) + 1))
                start = int(rng.integers(0, len(doc) - length + 1))
                pattern = doc[start : start + length]
            else:
                # Alphabet includes a letter absent from every document.
                length = int(rng.integers(1, 6))
                pattern = (rng.integers(97, 101, size=length)
                           .astype(np.uint8).tobytes())
            for k in sorted({1, 3, s}):
                got = dix.ranked_list(pattern, k)
                want = naive_ranked_list(coll, weights, pattern, k)
                assert got == want, (
                    f"ranked_list {pattern!r} k={k}: {list(got)} != {want}"
                )
            for t in (1, 2, 4, 8):
                got = dix.t_mine(pattern, t, 2)
                want = naive_t_mine(coll, weights, pattern, t, 2)
                assert got == want, (
                    f"t_mine {pattern!r} t={t}: {list(got)} != {want}"
                )
            patterns_checked += 1
    assert patterns_checked == 1000
    print(
        f"criterion 6: PASS ranked_list + t_mine (t in 1,2,4,8) vs naive "
        f"scans on {patterns_checked} patterns, 0 mismatches"
    )


def test_criterion_7_heap_merge_equivalence():
    rng = np.random.default_rng(7777)
    instances = 0
    for _ in range(40):
        n = int(rng.integers(8, 257))
        sigma = int(rng.integers(1, min(n, 32) + 1))
        arr = random_dense_array(rng, n, sigma,
                                 distinct_prio=bool(instances % 2))
        index = OptimalTopK(arr)
        for _ in range(25):
            m = min(int(rng.integers(1, 9)), n // 2)
            m = max(m, 1)
            cuts = np.sort(rng.choice(np.arange(1, n + 1),
                                      size=2 * m, replace=False))
            ranges = [(int(cuts[2 * i]), int(cuts[2 * i + 1]))
                      for i in range(m)]
            rng.shuffle(ranges)
            k = int(rng.integers(1, n + 2))
            got = merge_ranges_topk(index, ranges, k)
            entries = []
            for a, b in ranges:
                entries.extend(oracle_topk(arr, a, b, n))
            entries.sort(key=lambda e: (e[1], e[0]), reverse=True)
            want = entries[:k]
            assert got == want, (
                f"merge n={n} ranges={ranges} k={k}: {got} != {want}"
            )
            instances += 1
    assert instances == 1000
    print(
        f"criterion 7: PASS heap merge vs flatten-sort-truncate on "
        f"{instances} instances, 0 mismatches"
    )


def test_criterion_8_construction_smoke(big_optimal):
    _, build_full, make_array = big_optimal
    assert build_full < 60.0, f"full-size build took {build_full:.1f}s"
    half_arr = make_array(1 << 19)
    half_times = []
    for _ in range(2):
        t0 = time.perf_counter()
        OptimalTopK(half_arr)
        half_times.append(time.perf_counter() - t0)
    build_half = min(half_times)
    ratio = build_full / build_half
    assert ratio <= 3.0, (
        f"doubling n tripled build time: {build_full:.2f}s vs "
        f"{build_half:.2f}s"
    )
    print(
        f"criterion 8: PASS build(2^20)={build_full:.2f}s (< 60s), "
        f"build(2^19)={build_half:.2f}s, ratio {ratio:.2f} (<= 3.0)"
    )
