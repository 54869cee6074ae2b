"""Exception types raised by the public API.

Every error the package raises deliberately derives from TopKError so callers
can catch the whole family at once.  The CLI maps each class to a distinct
exit code.
"""


class TopKError(Exception):
    """Base class for all errors raised by this package."""


class EmptyArray(TopKError):
    """A color array must contain at least one element."""


class MissingPriority(TopKError):
    """A color appearing in the array has no priority entry."""


class ColorOutOfRange(TopKError):
    """Color ids must be exactly 0 .. sigma-1 for sigma distinct colors."""


class InvalidRange(TopKError):
    """Query range (a, b, K) violates 1 <= a <= b <= N or K >= 1."""


class ColorNotInSet(TopKError):
    """prank was asked about a color missing from the given set."""


class OutOfBounds(TopKError):
    """A rank position or mapped interval outside the valid domain."""


class BadParameter(TopKError):
    """A structural parameter (for example f < 2) is not usable."""


class SeparatorInContent(TopKError):
    """A document contains the reserved separator byte."""


class UnsupportedT(TopKError):
    """t-mine was asked for a t value not in the index's t_values."""


class OverlappingRanges(TopKError):
    """Ranges handed to the heap merger must be pairwise disjoint."""


class ParseError(TopKError):
    """An input file does not match the documented format."""


class SnapshotCorrupt(TopKError):
    """A snapshot file is truncated, has a bad checksum, or a bad version."""


class KindMismatch(TopKError):
    """A snapshot holds a different structure kind than the query needs."""
