import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkolors import cli
from topkolors.chunked import ChunkedTopK
from topkolors.docs import DocumentCollection, DocumentIndex, naive_t_mine
from topkolors.errors import ParseError, SnapshotCorrupt
from topkolors.model import new_color_array, oracle_topk
from topkolors.optimal import OptimalTopK
from topkolors.snapshot import (
    KIND_BYTES,
    _pack_sections,
    _unpack_sections,
    load_index,
    parse_array_text,
    parse_corpus_text,
    save_index,
)
from topkolors.sparse import SparseTopK
from topkolors.wavelet import WaveletTopK

CANON_TEXT = "8 4\n2 0 1 0 2 1 3 2\n4 2 7 5\n"
CORPUS_TEXT = "3 3 9 5\nabab\nbab\nca\n"


def canon():
    return new_color_array([2, 0, 1, 0, 2, 1, 3, 2], {0: 4, 1: 2, 2: 7, 3: 5})


@pytest.mark.parametrize(
    "make",
    [
        WaveletTopK,
        lambda a: SparseTopK(a, f=3),
        lambda a: OptimalTopK(a),
        ChunkedTopK,
    ],
)
def test_array_snapshot_round_trip(tmp_path, make):
    rng = np.random.default_rng(41)
    raw = rng.integers(0, 9, size=120)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    arr = new_color_array(dense, {c: int(p) for c, p in enumerate(rng.integers(0, 99, sig))})
    index = make(arr)
    path = str(tmp_path / "snap.bin")
    save_index(path, index)
    kind, loaded = load_index(path)
    assert type(loaded) is type(index)
    for _ in range(40):
        a = int(rng.integers(1, 121))
        b = int(rng.integers(a, 121))
        k = int(rng.integers(1, 15))
        assert loaded.topk(a, b, k) == index.topk(a, b, k)
    if type(index) is SparseTopK:
        assert loaded.f == 3


def test_docs_snapshot_round_trip(tmp_path):
    coll = DocumentCollection(["ababab", "abba", "bb"])
    index = DocumentIndex(coll, {0: 2, 1: 6, 2: 4})
    path = str(tmp_path / "docs.bin")
    save_index(path, index)
    kind, loaded = load_index(path)
    assert kind == "docs"
    assert loaded.collection.docs == coll.docs
    assert loaded.weights == index.weights
    assert loaded.ranked_list("ab", 3) == index.ranked_list("ab", 3)
    for t in (2, 3):
        assert loaded.t_mine("ab", t, 2) == index.t_mine("ab", t, 2)


def test_snapshot_bytes_are_stable(tmp_path):
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_index(p1, WaveletTopK(canon()))
    save_index(p2, WaveletTopK(canon()))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_snapshot_corruption_detected(tmp_path):
    path = str(tmp_path / "snap.bin")
    save_index(path, WaveletTopK(canon()))
    blob = bytearray(open(path, "rb").read())
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0xFF
    open(path, "wb").write(bytes(flipped))
    with pytest.raises(SnapshotCorrupt):
        load_index(path)
    open(path, "wb").write(bytes(blob[:-9]))
    with pytest.raises(SnapshotCorrupt):
        load_index(path)
    open(path, "wb").write(b"NOTASNAP" + bytes(blob))
    with pytest.raises(SnapshotCorrupt):
        load_index(path)


def test_parse_array_text_errors():
    assert parse_array_text(CANON_TEXT).n == 8
    with pytest.raises(ParseError):
        parse_array_text("")
    with pytest.raises(ParseError):
        parse_array_text("3\n0 1 2\n5 5 5\n")
    with pytest.raises(ParseError):
        parse_array_text("3 3\n0 1\n5 5 5\n")
    with pytest.raises(ParseError):
        parse_array_text("3 3\n0 1 2\n5 5\n")
    with pytest.raises(ParseError):
        parse_array_text("3 3\n0 one 2\n5 5 5\n")


def test_parse_corpus_text_errors():
    coll, weights = parse_corpus_text(CORPUS_TEXT)
    assert coll.num_docs == 3
    assert weights == {0: 3, 1: 9, 2: 5}
    with pytest.raises(ParseError):
        parse_corpus_text("")
    with pytest.raises(ParseError):
        parse_corpus_text("2 5\nab\nba\n")
    with pytest.raises(ParseError):
        parse_corpus_text("3 1 2 3\nab\nba\n")


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content)
    return str(p)


def test_cli_build_query_stats_verify(tmp_path, capsys):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    assert cli.main(["build", "--kind", "sparse", "--f", "3",
                     "--input", inp, "--output", snap]) == 0
    capsys.readouterr()

    assert cli.main(["query", "--snapshot", snap, "--range", "2", "6", "2"]) == 0
    assert capsys.readouterr().out == "(2,7)\n(0,4)\n"

    assert cli.main(["query", "--snapshot", snap, "--range", "1", "8", "8"]) == 0
    assert capsys.readouterr().out == "(2,7)\n(3,5)\n(0,4)\n(1,2)\n"

    assert cli.main(["stats", "--snapshot", snap]) == 0
    out = capsys.readouterr().out
    assert "#stat kind=sparse\n" in out
    assert "#stat n=8\n" in out
    assert "#stat sigma=4\n" in out
    assert "#stat f=3\n" in out
    assert all(ln.startswith("#stat ") for ln in out.strip().splitlines())

    assert cli.main(["verify", "--snapshot", snap,
                     "--trials", "50", "--seed", "7"]) == 0
    assert "verify: ok trials=50" in capsys.readouterr().out


def test_cli_docs_flow(tmp_path, capsys):
    inp = write(tmp_path, "corpus.txt", CORPUS_TEXT)
    snap = str(tmp_path / "docs.snap")
    assert cli.main(["build", "--kind", "docs",
                     "--input", inp, "--output", snap]) == 0
    capsys.readouterr()

    assert cli.main(["query", "--snapshot", snap,
                     "--pattern", "ab", "--k", "2"]) == 0
    assert capsys.readouterr().out == "(1,9)\n(0,3)\n"

    assert cli.main(["query", "--snapshot", snap,
                     "--pattern", "ab", "--k", "5", "--t", "2"]) == 0
    assert capsys.readouterr().out == "(0,3)\n"

    assert cli.main(["stats", "--snapshot", snap]) == 0
    out = capsys.readouterr().out
    assert "#stat kind=docs\n" in out
    assert "#stat num_docs=3\n" in out

    assert cli.main(["verify", "--snapshot", snap, "--trials", "40"]) == 0


def test_cli_query_t_three_matches_naive(tmp_path, capsys):
    corpus = "3 2 6 4\nababab\nabba\nbb\n"
    coll, weights = parse_corpus_text(corpus)
    snap = str(tmp_path / "docs.snap")
    assert cli.main(["build", "--kind", "docs", "--input",
                     write(tmp_path, "corpus.txt", corpus),
                     "--output", snap]) == 0
    capsys.readouterr()
    assert cli.main(["query", "--snapshot", snap,
                     "--pattern", "ab", "--t", "3"]) == 0
    want = naive_t_mine(coll, weights, "ab", 3, 1)
    assert want == [(0, 2)]
    assert capsys.readouterr().out == "".join(f"({c},{p})\n" for c, p in want)


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "--range", "1", "8", "2", "--t", "3"],
        ["query", "--range", "1", "8", "2", "--k", "7"],
        ["query", "--range", "1", "8", "2", "--t", "3", "--k", "7"],
        ["build", "--kind", "optimal", "--f", "9"],
        ["build", "--kind", "chunked", "--f", "2"],
        ["build", "--kind", "wavelet", "--f", "3"],
        ["build", "--kind", "docs", "--f", "2"],
    ],
    ids=["range-t", "range-k", "range-t-k", "optimal-f", "chunked-f",
         "wavelet-f", "docs-f"],
)
def test_flags_that_do_not_apply_are_bad_parameters(tmp_path, capsys, argv):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    assert cli.main(["build", "--kind", "sparse", "--input", inp,
                     "--output", snap]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.snap")
    if argv[0] == "query":
        argv = argv[:1] + ["--snapshot", snap] + argv[1:]
    else:
        argv = argv + ["--input", inp, "--output", out]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not os.path.exists(out)


def test_cli_exit_codes(tmp_path, capsys):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    cli.main(["build", "--kind", "wavelet", "--input", inp, "--output", snap])
    corpus = write(tmp_path, "c.txt", CORPUS_TEXT)
    dsnap = str(tmp_path / "d.snap")
    cli.main(["build", "--kind", "docs", "--input", corpus, "--output", dsnap])
    capsys.readouterr()

    # bad parameter: sparse refuses f=1
    assert cli.main(["build", "--kind", "sparse", "--f", "1",
                     "--input", inp, "--output", snap + "x"]) == 3
    # unparsable input
    empty = write(tmp_path, "empty.txt", "")
    assert cli.main(["build", "--kind", "wavelet",
                     "--input", empty, "--output", snap + "y"]) == 2
    # input that is not UTF-8, of either kind
    for kind, text in (("optimal", CANON_TEXT), ("docs", CORPUS_TEXT)):
        latin = tmp_path / f"latin1-{kind}.txt"
        latin.write_bytes(text.encode() + "\u00e9\n".encode("latin-1"))
        assert cli.main(["build", "--kind", kind, "--input", str(latin),
                         "--output", snap + "w"]) == 2
    # missing file
    assert cli.main(["build", "--kind", "wavelet",
                     "--input", str(tmp_path / "nope.txt"),
                     "--output", snap + "z"]) == 4
    assert cli.main(["stats", "--snapshot", str(tmp_path / "nope.snap")]) == 4
    # corrupt snapshot
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"TKSNAPgarbage")
    assert cli.main(["stats", "--snapshot", str(bad)]) == 5
    # kind mismatches both ways
    assert cli.main(["query", "--snapshot", snap,
                     "--pattern", "ab", "--k", "1"]) == 6
    assert cli.main(["query", "--snapshot", dsnap,
                     "--range", "1", "2", "1"]) == 6
    # invalid query range
    assert cli.main(["query", "--snapshot", snap,
                     "--range", "5", "2", "1"]) == 3
    # a pattern with no UTF-8 encoding, as argv decodes the byte 0xff
    assert cli.main(["query", "--snapshot", dsnap,
                     "--pattern", "\udcff", "--k", "1"]) == 3
    assert "internal" not in capsys.readouterr().err


def test_cli_verify_catches_seeded_mismatch(tmp_path, capsys, monkeypatch):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    cli.main(["build", "--kind", "optimal", "--input", inp, "--output", snap])
    capsys.readouterr()

    import topkolors.cli as cli_mod

    real_oracle = cli_mod.oracle_topk

    def lying_oracle(arr, a, b, k):
        out = list(real_oracle(arr, a, b, k))
        return out[::-1] if len(out) > 1 else [(99, 99)]

    monkeypatch.setattr(cli_mod, "oracle_topk", lying_oracle)
    assert cli_mod.main(["verify", "--snapshot", snap, "--trials", "5"]) == 1
    assert "mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--trials", "-5")])
def test_cli_verify_rejects_negative_seed_and_trials(tmp_path, capsys, flag,
                                                     value):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    cli.main(["build", "--kind", "chunked", "--input", inp, "--output", snap])
    capsys.readouterr()
    assert cli.main(["verify", "--snapshot", snap, flag, value]) == 3
    captured = capsys.readouterr()
    assert "verify: ok" not in captured.out
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_module_entry_point_runs(tmp_path):
    inp = tmp_path / "arr.txt"
    inp.write_text(CANON_TEXT)
    snap = tmp_path / "arr.snap"
    build = subprocess.run(
        [sys.executable, "-m", "topkolors.cli", "build", "--kind", "chunked",
         "--input", str(inp), "--output", str(snap)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    query = subprocess.run(
        [sys.executable, "-m", "topkolors.cli", "query",
         "--snapshot", str(snap), "--range", "2", "6", "2"],
        capture_output=True, text=True,
    )
    assert query.returncode == 0, query.stderr
    assert query.stdout == "(2,7)\n(0,4)\n"


def test_loaded_snapshot_answers_match_oracle(tmp_path):
    rng = np.random.default_rng(42)
    raw = rng.integers(0, 6, size=64)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    arr = new_color_array(dense, {c: int(p) for c, p in enumerate(rng.integers(0, 30, sig))})
    path = str(tmp_path / "o.snap")
    save_index(path, ChunkedTopK(arr))
    _, ix = load_index(path)
    for a in range(1, 65, 7):
        for b in range(a, 65, 5):
            assert ix.topk(a, b, 3) == oracle_topk(arr, a, b, 3)


def seal_array(path, kind, meta, colors, prio):
    """Write an array snapshot with the given meta, CRC and all."""
    payload = (np.asarray(colors, dtype="<i4").tobytes()
               + np.asarray(prio, dtype="<i8").tobytes())
    blob = _pack_sections(KIND_BYTES[kind],
                          [json.dumps(meta).encode(), payload])
    path.write_bytes(blob)
    return str(path)


def test_optimal_snapshot_with_grid_params_still_loads(tmp_path, capsys):
    # the meta an optimal snapshot carried while the index had grid knobs
    arr = canon()
    old_params = {
        "delta_floor": 4096,
        "delta_override": 2,
        "last_level_len": 3,
        "f_inner": 2,
        "f_last": 6,
        "word_key_bits": 128,
        "no_such_knob": 1,
    }
    meta = {"kind": "optimal", "params": old_params, "n": arr.n,
            "sigma": arr.sigma}
    snap = seal_array(tmp_path / "old.snap", "optimal", meta,
                      arr.colors, arr.priority_of)
    kind, ix = load_index(snap)
    assert kind == "optimal"
    assert isinstance(ix, OptimalTopK)
    for a in range(1, arr.n + 1):
        for b in range(a, arr.n + 1):
            for k in (1, 2, 4):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k)
    assert cli.main(["stats", "--snapshot", snap]) == 0
    assert "#stat kind=optimal\n" in capsys.readouterr().out


def test_chunked_snapshot_with_chunk_len_override_still_loads(tmp_path):
    # older chunked snapshots could pin a chunk length; the value is ignored
    rng = np.random.default_rng(6)
    raw = rng.integers(0, 5, size=40)
    _, dense = np.unique(raw, return_inverse=True)
    sig = int(dense.max()) + 1
    arr = new_color_array(dense, {c: int(p) for c, p in
                                  enumerate(rng.integers(0, 30, sig))})
    meta = {"kind": "chunked", "params": {"chunk_len_override": 7},
            "n": arr.n, "sigma": arr.sigma}
    snap = seal_array(tmp_path / "old.snap", "chunked", meta,
                      arr.colors, arr.priority_of)
    kind, ix = load_index(snap)
    assert kind == "chunked"
    assert isinstance(ix, ChunkedTopK)
    for a in range(1, arr.n + 1):
        for b in range(a, arr.n + 1):
            for k in (1, 2, 3, sig + 1):
                assert ix.topk(a, b, k) == oracle_topk(arr, a, b, k), (a, b, k)


CANON_META = {"kind": "sparse", "params": {"f": 2}, "n": 8, "sigma": 4}


@pytest.mark.parametrize(
    "meta_edit, colors",
    [
        ({"n": None}, None),
        ({"sigma": None}, None),
        ({"n": 0}, []),
        ({"n": -8}, None),
        ({"n": "8"}, None),
        ({"n": 8.0}, None),
        ({"sigma": True}, None),
        ({}, [2, 0, 1, 0, 9, 1, 3, 2]),
        ({}, [2, 0, 1, 0, -1, 1, 3, 2]),
        ({}, [2, 0, 1, 0, 2, 1, 2, 2]),
    ],
    ids=["no-n", "no-sigma", "zero-n", "negative-n", "string-n", "float-n",
         "bool-sigma", "color-above-sigma", "negative-color", "not-dense"],
)
def test_hostile_array_snapshot_is_corrupt(tmp_path, capsys, meta_edit,
                                           colors):
    meta = dict(CANON_META)
    for key, value in meta_edit.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    if colors is None:
        colors = canon().colors
    snap = seal_array(tmp_path / "bad.snap", "sparse", meta, colors,
                      [4, 2, 7, 5])
    assert cli.main(["stats", "--snapshot", snap]) == 5
    assert cli.main(["query", "--snapshot", snap,
                     "--range", "1", "8", "2"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")


DOCS_PARAMS = {"weights": [3, 9, 5]}


def docs_meta(**edit):
    params = dict(DOCS_PARAMS)
    for key, value in edit.items():
        if value is None:
            del params[key]
        else:
            params[key] = value
    return {"kind": "docs", "params": params}


@pytest.mark.parametrize(
    "kind, meta",
    [
        ("docs", docs_meta(weights=None)),
        ("docs", docs_meta(weights="3 9 5")),
        ("docs", docs_meta(weights=[3, "9", 5])),
        ("docs", docs_meta(weights=[3, 9.5, 5])),
        ("docs", docs_meta(weights=[3, True, 5])),
        ("docs", docs_meta(weights=[3, 9])),
        ("docs", docs_meta(weights=[3, 9, 5, 1])),
        ("docs", docs_meta(weights=[3, -(2**63), 5])),
        ("docs", ["docs", DOCS_PARAMS]),
        ("docs", {"kind": "docs", "params": [DOCS_PARAMS]}),
        ("sparse", ["sparse", {"f": 2}]),
        ("sparse", dict(CANON_META, params={})),
        ("sparse", dict(CANON_META, params={"f": "2"})),
        ("sparse", dict(CANON_META, params={"f": 2.0})),
        ("sparse", dict(CANON_META, params={"f": 1})),
        ("chunked", dict(CANON_META, kind="chunked", params={})),
        ("chunked", dict(CANON_META, kind="chunked",
                         params={"chunk_len_override": "4"})),
        ("chunked", dict(CANON_META, kind="chunked",
                         params={"chunk_len_override": 4.0})),
        ("chunked", dict(CANON_META, kind="chunked",
                         params={"chunk_len_override": False})),
    ],
    ids=["no-weights", "string-weights", "string-weight", "float-weight",
         "bool-weight", "short-weights", "long-weights", "int64-min-weight",
         "list-meta-docs",
         "list-params", "list-meta-sparse", "no-f", "string-f", "float-f",
         "f-one", "no-override", "string-override", "float-override",
         "bool-override"],
)
def test_hostile_snapshot_params_are_corrupt(tmp_path, capsys, kind, meta):
    if kind == "docs":
        payload = docs_payload(b"abab", b"bab", b"ca")
        query = ["--pattern", "ab", "--k", "2"]
    else:
        arr = canon()
        payload = (np.asarray(arr.colors, dtype="<i4").tobytes()
                   + np.asarray(arr.priority_of, dtype="<i8").tobytes())
        query = ["--range", "1", "8", "2"]
    snap = tmp_path / "bad.snap"
    snap.write_bytes(_pack_sections(KIND_BYTES[kind],
                                    [json.dumps(meta).encode(), payload]))
    assert cli.main(["stats", "--snapshot", str(snap)]) == 5
    assert cli.main(["query", "--snapshot", str(snap)] + query) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")


def docs_payload(*docs):
    return b"".join(len(d).to_bytes(4, "little") + d for d in docs)


@pytest.mark.parametrize(
    "t_values",
    [None, [1, "x"], [0, 1], 2, [2, 4]],
    ids=["no-t-values", "string-t", "zero-t", "int-t-values", "t-two-four"],
)
def test_docs_snapshot_thresholds_are_ignored(tmp_path, capsys, t_values):
    # older docs snapshots listed the thresholds t_mine accepted; whatever
    # they list, the loaded index answers every t
    meta = docs_meta() if t_values is None else docs_meta(t_values=t_values)
    snap = tmp_path / "old.snap"
    snap.write_bytes(_pack_sections(KIND_BYTES["docs"], [
        json.dumps(meta).encode(), docs_payload(b"abab", b"bab", b"ca")]))
    coll, weights = parse_corpus_text(CORPUS_TEXT)
    _, loaded = load_index(str(snap))
    for p in ("a", "ab", "b", "ca"):
        for t in range(1, coll.max_doc_len + 2):
            assert loaded.t_mine(p, t, 3) == naive_t_mine(
                coll, weights, p, t, 3), (p, t)
    assert cli.main(["query", "--snapshot", str(snap),
                     "--pattern", "ab", "--t", "1", "--k", "2"]) == 0
    assert capsys.readouterr().out == "(1,9)\n(0,3)\n"


@pytest.mark.parametrize(
    "docs, weights",
    [([b"abab", b"", b"ca"], [3, 9, 5]),
     ([b"abab", b"b\x00b", b"ca"], [3, 9, 5]),
     ([], [])],
    ids=["empty-document", "separator-in-document", "no-documents"],
)
def test_docs_payload_no_collection_accepts_is_corrupt(tmp_path, capsys, docs,
                                                       weights):
    snap = tmp_path / "bad.snap"
    snap.write_bytes(_pack_sections(KIND_BYTES["docs"], [
        json.dumps({"kind": "docs", "params": {"weights": weights}}).encode(),
        docs_payload(*docs)]))
    assert cli.main(["stats", "--snapshot", str(snap)]) == 5
    assert cli.main(["query", "--snapshot", str(snap),
                     "--pattern", "ab", "--k", "2"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_build_with_value_outside_int64_exits_3(tmp_path, capsys):
    arr_text = write(tmp_path, "big.txt", f"1 1\n0\n{2**63}\n")
    corpus = write(tmp_path, "low.txt", f"2 {-(2**63)} 2\nab\nba\n")
    for kind, inp in (("optimal", arr_text), ("docs", corpus)):
        assert cli.main(["build", "--kind", kind, "--input", inp,
                         "--output", str(tmp_path / "out.snap")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "outside int64" in err or "must lie in" in err


def test_internal_error_exits_7_without_traceback(tmp_path, capsys,
                                                  monkeypatch):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    cli.main(["build", "--kind", "optimal", "--input", inp, "--output", snap])
    capsys.readouterr()

    def broken(args):
        raise RuntimeError("handler fell over")

    monkeypatch.setattr(cli, "_cmd_stats", broken)
    assert cli.main(["stats", "--snapshot", snap]) == 7
    err = capsys.readouterr().err
    assert err == "error: internal: RuntimeError: handler fell over\n"
    assert "Traceback" not in err


FUZZ_KINDS = ("optimal", "sparse", "chunked", "docs")


@functools.cache
def valid_sections(kind):
    """Meta dict and payload of a small snapshot that save_index wrote."""
    if kind == "docs":
        index = DocumentIndex(*parse_corpus_text(CORPUS_TEXT))
    else:
        index = {"optimal": OptimalTopK, "sparse": SparseTopK,
                 "chunked": ChunkedTopK}[kind](canon())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.snap")
        save_index(path, index)
        with open(path, "rb") as fh:
            _, (meta, payload) = _unpack_sections(fh.read())
    return json.loads(meta), payload


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([0, 1, 2, 3, 8, -1, 2**31, 2**63 - 1, 2**63, -(2**63),
                       10**30]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def hostile_snapshots(draw):
    """A snapshot with some meta values and payload bytes replaced, sealed
    with a valid CRC, and the query arguments that suit its kind."""
    kind = draw(st.sampled_from(FUZZ_KINDS))
    meta, payload = valid_sections(kind)
    meta = json.loads(json.dumps(meta))
    for _ in range(draw(st.integers(0, 3))):
        params = meta.get("params")
        on_params = isinstance(params, dict) and draw(st.booleans())
        target = params if on_params else meta
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        if draw(st.integers(0, 4)) == 0:
            target.pop(key, None)
        else:
            target[key] = draw(json_values)
    payload = bytearray(payload)
    for _ in range(draw(st.integers(0, 4))):
        if not payload:
            break
        pos = draw(st.integers(0, len(payload) - 1))
        payload[pos] = draw(st.integers(0, 255))
    cut = draw(st.integers(-4, 4))
    if cut < 0:
        del payload[cut:]
    else:
        payload += bytes(cut)
    blob = _pack_sections(KIND_BYTES[kind],
                          [json.dumps(meta).encode(), bytes(payload)])
    if kind == "docs":
        query = ["--pattern", "ab", "--k", "2", "--t", "2"]
    else:
        query = ["--range", "1", "8", "2"]
    return blob, query


@given(hostile_snapshots())
@settings(max_examples=300, deadline=None)
def test_fuzzed_snapshots_exit_with_documented_codes(case):
    blob, query = case
    with tempfile.TemporaryDirectory() as tmp:
        snap = os.path.join(tmp, "fuzz.snap")
        with open(snap, "wb") as fh:
            fh.write(blob)
        for argv in (["stats", "--snapshot", snap],
                     ["query", "--snapshot", snap] + query):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 3, 5, 6), (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue()


# the docs format: weights in the meta, documents length-prefixed; save_index
# must reproduce these bytes exactly
DOCS_BLOB = bytes.fromhex(
    "544b534e41500105320000007b226b696e64223a2022646f6373222c2022706172616d"
    "73223a207b2277656967687473223a205b322c20362c20345d7d7d1800000006000000"
    "61626162616204000000616262610200000062620dc2e8f6"
)


# a docs snapshot listing t = 1, 2, 3, written when t = 1 still had an
# anchor set and the index accepted only the thresholds it listed
DOCS_BLOB_T123 = bytes.fromhex(
    "544b534e41500105490000007b226b696e64223a2022646f6373222c2022706172616d"
    "73223a207b22745f76616c756573223a205b312c20322c20335d2c2022776569676874"
    "73223a205b322c20362c20345d7d7d1800000006000000616261626162040000006162"
    "6261020000006262efeac797"
)


# the canonical array saved as each array kind (sparse with f = 3); the
# format is fixed, so save_index must reproduce these bytes exactly
ARRAY_BLOBS = {
    "wavelet": bytes.fromhex(
        "544b534e41500101350000007b226b696e64223a2022776176656c6574222c20226e22"
        "3a20382c2022706172616d73223a207b7d2c20227369676d61223a20347d4000000002"
        "0000000000000001000000000000000200000001000000030000000200000004000000"
        "00000000020000000000000007000000000000000500000000000000435360c2"
    ),
    "sparse": bytes.fromhex(
        "544b534e415001023a0000007b226b696e64223a2022737061727365222c20226e223a"
        "20382c2022706172616d73223a207b2266223a20337d2c20227369676d61223a20347d"
        "4000000002000000000000000100000000000000020000000100000003000000020000"
        "000400000000000000020000000000000007000000000000000500000000000000f2e1"
        "cd81"
    ),
    "optimal": bytes.fromhex(
        "544b534e41500103350000007b226b696e64223a20226f7074696d616c222c20226e22"
        "3a20382c2022706172616d73223a207b7d2c20227369676d61223a20347d4000000002"
        "0000000000000001000000000000000200000001000000030000000200000004000000"
        "00000000020000000000000007000000000000000500000000000000e0168628"
    ),
    "chunked": bytes.fromhex(
        "544b534e415001044f0000007b226b696e64223a20226368756e6b6564222c20226e22"
        "3a20382c2022706172616d73223a207b226368756e6b5f6c656e5f6f76657272696465"
        "223a206e756c6c7d2c20227369676d61223a20347d4000000002000000000000000100"
        "0000000000000200000001000000030000000200000004000000000000000200000000"
        "00000007000000000000000500000000000000ef3256de"
    ),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_BLOBS))
def test_array_snapshot_bytes_are_pinned(tmp_path, kind):
    make = {"wavelet": WaveletTopK, "sparse": lambda a: SparseTopK(a, f=3),
            "optimal": OptimalTopK, "chunked": ChunkedTopK}[kind]
    index = make(canon())
    path = str(tmp_path / "snap.bin")
    save_index(path, index)
    assert open(path, "rb").read() == ARRAY_BLOBS[kind]
    open(path, "wb").write(ARRAY_BLOBS[kind])
    loaded_kind, loaded = load_index(path)
    assert loaded_kind == kind and type(loaded) is type(index)
    arr = canon()
    for a in range(1, 9):
        for b in range(a, 9):
            for k in (1, 2, 4):
                assert loaded.topk(a, b, k) == oracle_topk(arr, a, b, k)


def test_docs_snapshot_bytes_are_pinned(tmp_path):
    coll = DocumentCollection(["ababab", "abba", "bb"])
    weights = {0: 2, 1: 6, 2: 4}
    path = str(tmp_path / "docs.bin")
    save_index(path, DocumentIndex(coll, weights))
    assert open(path, "rb").read() == DOCS_BLOB
    # the old format differs only in its meta: the same payload section
    assert DOCS_BLOB[-32:-4] == DOCS_BLOB_T123[-32:-4]


def test_docs_snapshot_listing_t_one_answers_from_main_index(tmp_path):
    coll = DocumentCollection(["ababab", "abba", "bb"])
    weights = {0: 2, 1: 6, 2: 4}
    for blob in (DOCS_BLOB_T123, DOCS_BLOB):
        path = tmp_path / "docs.bin"
        path.write_bytes(blob)
        kind, loaded = load_index(str(path))
        assert kind == "docs" and loaded.weights == weights
        # t = 4 was never listed in DOCS_BLOB_T123
        for p in ("a", "ab", "b", "bb", "ba", "abab"):
            for t in (1, 2, 3, 4):
                for k in (1, 3):
                    assert loaded.t_mine(p, t, k) == naive_t_mine(
                        coll, weights, p, t, k), (p, t, k)


@pytest.mark.parametrize("kind, f", [("wavelet", None), ("sparse", 3),
                                     ("optimal", None), ("chunked", None)])
def test_stats_prints_rank_bits_and_scan_widths(tmp_path, capsys, kind, f):
    inp = write(tmp_path, "arr.txt", CANON_TEXT)
    snap = str(tmp_path / "arr.snap")
    argv = ["build", "--kind", kind, "--input", inp, "--output", snap]
    assert cli.main(argv + (["--f", str(f)] if f else [])) == 0
    capsys.readouterr()
    assert cli.main(["stats", "--snapshot", snap]) == 0
    out = capsys.readouterr().out
    assert "#stat rank_bits=16\n" in out
    _, index = load_index(snap)
    for k in (1, 16, 1024):
        # WaveletTopK scans no range
        want = index.core.scan_width(k) if kind != "wavelet" else 0
        assert f"#stat scan_width_k{k}={want}\n" in out


def test_stats_reads_the_docs_main_core_and_wide_ranks(tmp_path, capsys):
    inp = write(tmp_path, "corpus.txt", CORPUS_TEXT)
    snap = str(tmp_path / "docs.snap")
    assert cli.main(["build", "--kind", "docs",
                     "--input", inp, "--output", snap]) == 0
    capsys.readouterr()
    assert cli.main(["stats", "--snapshot", snap]) == 0
    out = capsys.readouterr().out
    core = load_index(snap)[1].core
    assert "#stat rank_bits=16\n" in out
    for k in (1, 16, 1024):
        assert f"#stat scan_width_k{k}={core.scan_width(k)}\n" in out
    # past sigma = 2^16 the ranks are int32
    sigma = (1 << 16) + 1
    arr = new_color_array(np.arange(sigma)[::-1], {c: c % 7 for c in range(sigma)})
    save_index(snap, OptimalTopK(arr))
    assert cli.main(["stats", "--snapshot", snap]) == 0
    assert "#stat rank_bits=32\n" in capsys.readouterr().out
