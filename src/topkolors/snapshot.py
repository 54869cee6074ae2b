"""Snapshot files: persist an index's inputs, rebuild on load.

Builds are deterministic functions of (input data, parameters), so a
snapshot stores exactly those and loading reconstructs the index from
scratch.  Layout:

    magic "TKSNAP" | version u8 | kind u8 |
    [u32 LE length | bytes] x2  (meta JSON, payload) |
    crc32 u32 LE over everything before it

Array kinds carry colors (int32 LE) then priorities (int64 LE) as the
payload; the document kind carries each document length-prefixed.  A
ColorArray stores ranks, not colors, so its colors are derived
(color_of_rank[ranks]) when it is saved, and the bytes are those of the
colors it was built from.  Any structural defect, bad checksum, unknown
version or kind raises SnapshotCorrupt; asking a loaded snapshot to be
something it is not is KindMismatch territory and left to callers.

Also here: the plain-text input formats the command line accepts, since
they feed the same constructors.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .chunked import ChunkedTopK
from .docs import DocumentCollection, DocumentIndex
from .errors import (
    BadParameter,
    EmptyArray,
    ParseError,
    SeparatorInContent,
    SnapshotCorrupt,
)
from .model import ColorArray, new_color_array
from .optimal import OptimalTopK
from .sparse import SparseTopK
from .wavelet import WaveletTopK

MAGIC = b"TKSNAP"
VERSION = 1
KIND_BYTES = {"wavelet": 1, "sparse": 2, "optimal": 3, "chunked": 4, "docs": 5}
KIND_NAMES = {v: k for k, v in KIND_BYTES.items()}
# kind name -> the class it rebuilds; a snapshot records its index's exact
# class, since OptimalTopK and ChunkedTopK are SparseTopKs too
KINDS = {"wavelet": WaveletTopK, "sparse": SparseTopK, "optimal": OptimalTopK,
         "chunked": ChunkedTopK, "docs": DocumentIndex}
_KIND_OF = {cls: kind for kind, cls in KINDS.items()}


def _pack_sections(kind_byte: int, sections: list[bytes]) -> bytes:
    body = bytearray()
    body += MAGIC
    body.append(VERSION)
    body.append(kind_byte)
    for sec in sections:
        body += struct.pack("<I", len(sec))
        body += sec
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    return bytes(body)


def _unpack_sections(blob: bytes):
    if len(blob) < len(MAGIC) + 2 + 4:
        raise SnapshotCorrupt("snapshot truncated")
    if blob[: len(MAGIC)] != MAGIC:
        raise SnapshotCorrupt("bad magic")
    crc_stored = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != crc_stored:
        raise SnapshotCorrupt("checksum mismatch")
    version = blob[len(MAGIC)]
    if version != VERSION:
        raise SnapshotCorrupt(f"unsupported version {version}")
    kind_byte = blob[len(MAGIC) + 1]
    if kind_byte not in KIND_NAMES:
        raise SnapshotCorrupt(f"unknown kind byte {kind_byte}")
    sections = []
    pos = len(MAGIC) + 2
    end = len(blob) - 4
    while pos < end:
        if pos + 4 > end:
            raise SnapshotCorrupt("section header truncated")
        (length,) = struct.unpack("<I", blob[pos : pos + 4])
        pos += 4
        if pos + length > end:
            raise SnapshotCorrupt("section body truncated")
        sections.append(blob[pos : pos + length])
        pos += length
    return KIND_NAMES[kind_byte], sections


def _array_payload(arr: ColorArray) -> bytes:
    return (
        np.ascontiguousarray(arr.colors, dtype="<i4").tobytes()
        + np.ascontiguousarray(arr.priority_of, dtype="<i8").tobytes()
    )


def _array_from_payload(meta: dict, payload: bytes) -> ColorArray:
    """The saved ColorArray, held to the rules new_color_array applies."""
    for key in ("n", "sigma"):
        v = meta.get(key)
        if not _is_int(v) or v < 1:
            raise SnapshotCorrupt(
                f"meta {key!r} must be a positive int, got {v!r}"
            )
    n, sigma = meta["n"], meta["sigma"]
    want = 4 * n + 8 * sigma
    if len(payload) != want:
        raise SnapshotCorrupt(
            f"array payload is {len(payload)} bytes, expected {want}"
        )
    colors = np.frombuffer(payload[: 4 * n], dtype="<i4").astype(np.int32)
    prio = np.frombuffer(payload[4 * n :], dtype="<i8").astype(np.int64)
    lo, hi = int(colors.min()), int(colors.max())
    if lo < 0 or hi >= sigma:
        raise SnapshotCorrupt(
            f"color ids span [{lo}, {hi}], outside [0, {sigma})"
        )
    if not np.bincount(colors, minlength=sigma).all():
        raise SnapshotCorrupt(f"color ids are not dense in [0, {sigma})")
    return ColorArray(colors, prio)


def _docs_payload(docs: list[bytes]) -> bytes:
    out = bytearray()
    for d in docs:
        out += struct.pack("<I", len(d))
        out += d
    return bytes(out)


def _docs_from_payload(payload: bytes) -> list[bytes]:
    docs = []
    pos = 0
    while pos < len(payload):
        if pos + 4 > len(payload):
            raise SnapshotCorrupt("document header truncated")
        (length,) = struct.unpack("<I", payload[pos : pos + 4])
        pos += 4
        if pos + length > len(payload):
            raise SnapshotCorrupt("document body truncated")
        docs.append(payload[pos : pos + length])
        pos += length
    return docs


def save_index(path: str, index) -> None:
    kind = _KIND_OF.get(type(index))
    if kind is None:
        raise ParseError(f"cannot snapshot object of type {type(index).__name__}")
    if kind == "docs":
        weights = [index.weights[j] for j in range(index.collection.num_docs)]
        meta = {"kind": kind, "params": {"weights": weights}}
        payload = _docs_payload(index.collection.docs)
    else:
        arr = index.arr
        meta = {"kind": kind, "params": _array_params(kind, index),
                "n": arr.n, "sigma": arr.sigma}
        payload = _array_payload(arr)
    blob = _pack_sections(
        KIND_BYTES[kind],
        [json.dumps(meta, sort_keys=True).encode(), payload],
    )
    with open(path, "wb") as fh:
        fh.write(blob)


def _array_params(kind: str, index) -> dict:
    if kind == "sparse":
        return {"f": index.f}
    if kind == "chunked":
        # the chunk length override is gone; the key stays for old readers
        return {"chunk_len_override": None}
    return {}


def _array_kwargs(kind: str, params: dict) -> dict:
    """Constructor arguments of an array kind, from its saved params."""
    if kind == "sparse":
        f = params.get("f")
        if not _is_int(f) or f < 2:
            raise SnapshotCorrupt(f"params 'f' must be an int >= 2, got {f!r}")
        return {"f": f}
    if kind == "chunked":
        # a missing key reads as False, which is corrupt; a valid override
        # from an older snapshot pinned a chunk length that no longer
        # exists, so it is ignored
        override = params.get("chunk_len_override", False)
        if override is not None and (not _is_int(override) or override < 1):
            raise SnapshotCorrupt(
                "params 'chunk_len_override' must be null or an int >= 1, "
                f"got {override!r}"
            )
    # older optimal snapshots carry the removed grid parameters; ignore them
    return {}


def load_index(path: str):
    """Rebuild the saved index; returns (kind_name, index)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    kind, sections = _unpack_sections(blob)
    if len(sections) != 2:
        raise SnapshotCorrupt(f"expected 2 sections, found {len(sections)}")
    try:
        meta = json.loads(sections[0].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorrupt(f"meta section unreadable: {exc}") from exc
    if not isinstance(meta, dict):
        raise SnapshotCorrupt("meta section is not a JSON object")
    if meta.get("kind") != kind:
        raise SnapshotCorrupt("meta kind disagrees with header byte")
    params = meta.get("params", {})
    if not isinstance(params, dict):
        raise SnapshotCorrupt("meta params is not a JSON object")
    if kind == "docs":
        # older snapshots also list occurrence thresholds; they are ignored
        weights = _int_list(params, "weights")
        try:
            # save_index only writes documents and weights these accept
            coll = DocumentCollection(_docs_from_payload(sections[1]))
            if len(weights) != coll.num_docs:
                raise SnapshotCorrupt(
                    f"{len(weights)} weights for {coll.num_docs} documents"
                )
            index = DocumentIndex(coll, weights)
        except (BadParameter, EmptyArray, SeparatorInContent) as exc:
            raise SnapshotCorrupt(f"docs snapshot rejected: {exc}") from exc
        return kind, index
    arr = _array_from_payload(meta, sections[1])
    return kind, KINDS[kind](arr, **_array_kwargs(kind, params))


def _is_int(v) -> bool:
    """A JSON integer: bool is an int subclass in Python but not here."""
    return type(v) is int


def _int_list(params: dict, key: str) -> list[int]:
    """params[key], which must be a list of ints."""
    v = params.get(key)
    if not isinstance(v, list) or not all(_is_int(x) for x in v):
        raise SnapshotCorrupt(f"params {key!r} must be a list of ints")
    return v


def parse_array_text(text: str) -> ColorArray:
    """Three-line format: "N sigma", N color ids, sigma priorities."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 3:
        raise ParseError(f"expected 3 non-empty lines, found {len(lines)}")
    try:
        head = [int(v) for v in lines[0].split()]
        ids = [int(v) for v in lines[1].split()]
        prio = [int(v) for v in lines[2].split()]
    except ValueError as exc:
        raise ParseError(f"non-integer token: {exc}") from exc
    if len(head) != 2:
        raise ParseError("header must be exactly: N sigma")
    n, sigma = head
    if len(ids) != n:
        raise ParseError(f"expected {n} color ids, found {len(ids)}")
    if len(prio) != sigma:
        raise ParseError(f"expected {sigma} priorities, found {len(prio)}")
    return new_color_array(ids, prio)


def parse_corpus_text(text: str):
    """Header "s w_1 .. w_s" then s lines, one document each."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing corpus header line")
    try:
        head = [int(v) for v in lines[0].split()]
    except ValueError as exc:
        raise ParseError(f"non-integer token in header: {exc}") from exc
    if not head:
        raise ParseError("empty corpus header")
    s = head[0]
    if len(head) != s + 1:
        raise ParseError(
            f"header names {s} documents but carries {len(head) - 1} weights"
        )
    docs = lines[1 : s + 1]
    if len(docs) != s:
        raise ParseError(f"expected {s} document lines, found {len(docs)}")
    collection = DocumentCollection([d.encode() for d in docs])
    weights = {j: w for j, w in enumerate(head[1:])}
    return collection, weights
