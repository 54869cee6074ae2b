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
    index = DocumentIndex(coll, {0: 2, 1: 6, 2: 4}, t_values=[1, 2, 3])
    path = str(tmp_path / "docs.bin")
    save_index(path, index)
    kind, loaded = load_index(path)
    assert kind == "docs"
    assert loaded.collection.docs == coll.docs
    assert loaded.t_values == [1, 2, 3]
    assert loaded.ranked_list("ab", 3) == index.ranked_list("ab", 3)
    assert loaded.t_mine("ab", 2, 2) == index.t_mine("ab", 2, 2)


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


DOCS_PARAMS = {"weights": [3, 9, 5], "t_values": [1, 2]}


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
        ("docs", docs_meta(t_values=None)),
        ("docs", docs_meta(t_values=[1, "x"])),
        ("docs", docs_meta(t_values=[0, 1])),
        ("docs", docs_meta(t_values=2)),
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
         "no-t-values",
         "string-t", "zero-t", "int-t-values", "list-meta-docs",
         "list-params", "list-meta-sparse", "no-f", "string-f", "float-f",
         "f-one", "no-override", "string-override", "float-override",
         "bool-override"],
)
def test_hostile_snapshot_params_are_corrupt(tmp_path, capsys, kind, meta):
    if kind == "docs":
        payload = b"".join(len(d).to_bytes(4, "little") + d
                           for d in (b"abab", b"bab", b"ca"))
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
        index = DocumentIndex(*parse_corpus_text(CORPUS_TEXT), t_values=[1, 2])
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


# a docs snapshot listing t = 1, written when t = 1 still had an anchor set
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


def test_docs_snapshot_listing_t_one_answers_from_main_index(tmp_path):
    coll = DocumentCollection(["ababab", "abba", "bb"])
    weights = {0: 2, 1: 6, 2: 4}
    path = str(tmp_path / "docs.bin")
    save_index(path, DocumentIndex(coll, weights, t_values=[1, 2, 3]))
    assert open(path, "rb").read() == DOCS_BLOB_T123
    open(path, "wb").write(DOCS_BLOB_T123)
    _, loaded = load_index(path)
    assert loaded.t_values == [1, 2, 3]
    for p in ("a", "ab", "b", "bb", "ba", "abab"):
        for t in (1, 2, 3):
            for k in (1, 3):
                assert loaded.t_mine(p, t, k) == naive_t_mine(
                    coll, weights, p, t, k)
