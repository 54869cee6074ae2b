"""Small numeric helpers shared across the index structures."""

from __future__ import annotations

import numpy as np


def floor_log2(n: int) -> int:
    """Largest e with 2**e <= n (n >= 1)."""
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    """Smallest e with 2**e >= n (n >= 1)."""
    return (n - 1).bit_length() if n > 1 else 0


def nbits(*arrays) -> int:
    """Total payload bits held by the given numpy arrays (None entries skipped)."""
    total = 0
    for a in arrays:
        if a is None:
            continue
        total += a.nbytes * 8
    return total


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Per-word population count for a uint64 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.uint32)
    as_bytes = words.view(np.uint8).reshape(-1, 8)
    return _POP8[as_bytes].sum(axis=1, dtype=np.uint32)
