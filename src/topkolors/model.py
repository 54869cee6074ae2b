"""Core model: colored arrays, ranked color lists, and brute-force oracles.

An array of N elements carries one color per position (ids 0 .. sigma-1) and
every color has a distinct effective priority.  A top-K query over a range
[a, b] (1-based, inclusive) returns the K highest-priority distinct colors in
that range, highest first.  The oracles here answer by direct scan; every
index structure in the package is tested against them.

Ties in the user-supplied priorities are broken by color id: the effective
order compares (priority, color id) lexicographically, so each color gets a
distinct rank in [1, sigma].  Query results report the original priority
value alongside the color.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadParameter,
    ColorNotInSet,
    ColorOutOfRange,
    EmptyArray,
    InvalidRange,
    MissingPriority,
)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def check_range(n: int, a: int, b: int, k: int = 1) -> tuple[int, int, int]:
    """(a, b, k) as Python ints, or InvalidRange unless they are integers
    (numpy's too), 1 <= a <= b <= n and k >= 1."""
    try:
        a, b, k = operator.index(a), operator.index(b), operator.index(k)
    except TypeError:
        raise InvalidRange(
            f"range bounds and K must be integers, got ({a!r}, {b!r}, {k!r})"
        ) from None
    if not (1 <= a <= b <= n):
        raise InvalidRange(f"range ({a}, {b}) not within [1, {n}]")
    if k < 1:
        raise InvalidRange(f"K must be >= 1, got {k}")
    return a, b, k


class ColorList:
    """A priority-descending list of (color id, priority) pairs.

    Entries are unique per color and strictly decreasing under the effective
    (priority, color id) order.  Compares equal to any sequence of the
    same pairs, and unequal to anything that is not a sequence of pairs.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[int, int]]):
        self.entries = tuple((int(c), int(p)) for c, p in entries)

    @classmethod
    def _of_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "ColorList":
        """A ColorList over pairs already holding Python ints."""
        out = cls.__new__(cls)
        out.entries = tuple(pairs)
        return out

    def check(self) -> None:
        """Assert the descending-order and distinct-color invariants."""
        seen = set()
        prev = None
        for color, prio in self.entries:
            if color in seen:
                raise AssertionError(f"duplicate color {color}")
            seen.add(color)
            key = (prio, color)
            if prev is not None and key >= prev:
                raise AssertionError(f"entries not strictly descending at {key}")
            prev = key

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, ColorList):
            return self.entries == other.entries
        # anything but a sequence of pairs is not comparable: == is False
        try:
            pairs = tuple(tuple(e) for e in other)
        except TypeError:
            return NotImplemented
        if any(len(e) != 2 for e in pairs):
            return NotImplemented
        return self.entries == pairs

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"ColorList({list(self.entries)!r})"


class ColorArray:
    """An immutable colored array, held as per-position color ranks.

    Attributes:
        ranks: the one per-position array: each position's 0-based
            effective rank, uint16 when sigma <= 2^16 and int32 otherwise.
            The sparse core's scan reads slices of it and its build sorts
            it, with no gather through rank_of.
        sigma: number of distinct colors (color ids are exactly 0..sigma-1).
        priority_of: int64 array, original priority per color id.
        rank_of: int32 array, 0-based effective rank per color id
            (higher rank means higher priority; ranks are a permutation of
            0..sigma-1 obtained by sorting colors by (priority, color id)).
        color_of_rank: inverse permutation of rank_of.

    colors, the int32 color id of every position, is derived on each read
    as color_of_rank[ranks]; it equals the array the constructor was given.
    """

    __slots__ = ("ranks", "sigma", "priority_of", "rank_of", "color_of_rank")

    def __init__(self, colors: np.ndarray, priority_of: np.ndarray):
        self.sigma = len(priority_of)
        self.priority_of = priority_of
        order = np.lexsort((np.arange(self.sigma), priority_of))
        rank_of = np.empty(self.sigma, dtype=np.int32)
        rank_of[order] = np.arange(self.sigma, dtype=np.int32)
        self.rank_of = rank_of
        self.color_of_rank = order.astype(np.int32)
        # never uint8: numpy sorts it several times slower than uint16
        dtype = np.uint16 if self.sigma <= 1 << 16 else np.int32
        self.ranks = rank_of.astype(dtype)[colors]

    @property
    def n(self) -> int:
        return len(self.ranks)

    @property
    def colors(self) -> np.ndarray:
        """Per-position color ids (int32), derived from the ranks."""
        return self.color_of_rank[self.ranks]

    def list_from_ranks(self, ranks: np.ndarray | Sequence[int]) -> ColorList:
        """Build a ColorList from 0-based effective ranks, highest first: an
        integer array or a list of ints."""
        # numpy indexes with an intp array faster than with a list or with
        # the uint16 ranks a scan returns, even counting the conversion
        colors = self.color_of_rank[np.asarray(ranks, dtype=np.intp)]
        return ColorList._of_pairs(
            zip(colors.tolist(), self.priority_of[colors].tolist())
        )

    def __repr__(self) -> str:
        return f"ColorArray(n={self.n}, sigma={self.sigma})"


def read_table(table, count: int, item: str, name: str) -> list[int]:
    """[table[i] for i in range(count)] as ints, from a mapping or a
    sequence read by index, numpy's too.  A missing entry raises
    MissingPriority; a table that cannot be indexed, or an entry that is not
    an integer (numpy's are), BadParameter."""
    out = []
    try:
        for i in range(count):
            out.append(operator.index(table[i]))
    except LookupError:
        raise MissingPriority(f"{item} {i} has no {name}") from None
    except TypeError:
        raise BadParameter(f"{name} of {item} {i} is not an integer: "
                           f"{type(table).__name__}[{i}]") from None
    return out


def new_color_array(
    colors: Sequence[int], priorities: Mapping[int, int] | Sequence[int]
) -> ColorArray:
    """Validate raw colors and priorities and build a ColorArray.

    The distinct colors appearing in `colors` must be exactly 0..sigma-1 and
    each must have a priority, priorities[c]: a mapping or a sequence read
    by index.  Raises EmptyArray, MissingPriority, ColorOutOfRange for
    color ids that are not integers in 0..sigma-1 or not one flat sequence,
    or BadParameter for priorities that cannot be indexed or a priority
    that is not an integer (numpy's are) or lies outside int64.
    """
    try:
        arr = np.asarray(colors)
    except ValueError:  # nested lists of unequal lengths
        raise ColorOutOfRange("colors must be a flat sequence of ids") from None
    if arr.ndim != 1:
        raise ColorOutOfRange(f"colors must be flat, got {arr.ndim} dimensions")
    if arr.size == 0:
        raise EmptyArray("color array must be non-empty")
    # no float, bool or object ids: casting would truncate 1.7 to 1
    if arr.dtype.kind not in "iu":
        raise ColorOutOfRange(
            f"color ids must be integers within int64, got dtype {arr.dtype}"
        )
    distinct = np.unique(arr)
    if distinct[0] < 0:
        raise ColorOutOfRange(f"negative color id {int(distinct[0])}")
    sigma = len(distinct)
    if int(distinct[-1]) != sigma - 1:
        raise ColorOutOfRange(
            f"distinct colors must be exactly 0..{sigma - 1}, "
            f"found id {int(distinct[-1])}"
        )
    prio = read_table(priorities, sigma, "color", "priority")
    for c, p in enumerate(prio):
        if not INT64_MIN <= p <= INT64_MAX:
            raise BadParameter(f"priority {p} of color {c} is outside int64")
    return ColorArray(arr, np.array(prio, dtype=np.int64))


def oracle_topk(arr: ColorArray, a: int, b: int, k: int) -> ColorList:
    """Top-K distinct colors in arr[a..b] by direct scan, highest first."""
    a, b, k = check_range(arr.n, a, b, k)
    present = np.unique(arr.color_of_rank[arr.ranks[a - 1 : b]])
    order = sorted(
        (int(c) for c in present),
        key=lambda c: (int(arr.priority_of[c]), c),
        reverse=True,
    )
    return ColorList((c, int(arr.priority_of[c])) for c in order[:k])


def oracle_distinct_count(arr: ColorArray, a: int, b: int) -> int:
    """Number of distinct colors in arr[a..b] by direct scan."""
    a, b, _ = check_range(arr.n, a, b)
    return int(len(np.unique(arr.ranks[a - 1 : b])))


def prank(c: int, priorities: Mapping[int, int] | Sequence[int]) -> int:
    """1-based rank of color c inside the given set: the number of colors
    whose effective priority is <= that of c (ties broken by color id).
    A mapping is read by key, anything else as read_table reads it: a
    sequence by index, numpy's too.  A color missing from the set is a
    ColorNotInSet; a table that is neither, or a color or priority that
    is not an integer, a BadParameter."""
    if isinstance(priorities, Mapping):
        pairs = priorities.items()
    else:
        try:
            count = len(priorities)
        except TypeError:
            raise BadParameter("priorities must be a mapping or a sequence, "
                               f"got {type(priorities).__name__}") from None
        pairs = enumerate(read_table(priorities, count, "color", "priority"))
    try:
        c = operator.index(c)
        table = {operator.index(c2): operator.index(p) for c2, p in pairs}
    except TypeError:
        raise BadParameter("colors and priorities must be integers") from None
    if c not in table:
        raise ColorNotInSet(f"color {c} not in set")
    key = (table[c], c)
    return sum((p, c2) <= key for c2, p in table.items())
