"""Range top-K color reporting indexes and ranked document retrieval."""

from .chunked import ChunkedTopK
from .docs import (
    DocumentCollection,
    DocumentIndex,
    RangeHeapMerger,
    build_suffix_array,
    merge_ranges_topk,
    relevance_weights,
)
from .errors import (
    BadParameter,
    ColorNotInSet,
    ColorOutOfRange,
    EmptyArray,
    InvalidRange,
    KindMismatch,
    MissingPriority,
    OutOfBounds,
    OverlappingRanges,
    ParseError,
    SeparatorInContent,
    SnapshotCorrupt,
    TopKError,
    UnsupportedT,
)
from .model import (
    ColorArray,
    ColorList,
    QuerySpec,
    check_range,
    new_color_array,
    oracle_distinct_count,
    oracle_topk,
    prank,
)
from .online import ColorStream, open_stream
from .optimal import OptimalTopK, two_list_union
from .snapshot import load_index, save_index
from .sparse import SparseTopK
from .wavelet import WaveletTopK

__all__ = [
    "BadParameter",
    "ChunkedTopK",
    "ColorArray",
    "ColorList",
    "ColorNotInSet",
    "ColorOutOfRange",
    "ColorStream",
    "DocumentCollection",
    "DocumentIndex",
    "EmptyArray",
    "InvalidRange",
    "KindMismatch",
    "MissingPriority",
    "OptimalTopK",
    "OutOfBounds",
    "OverlappingRanges",
    "ParseError",
    "QuerySpec",
    "RangeHeapMerger",
    "SeparatorInContent",
    "SnapshotCorrupt",
    "SparseTopK",
    "TopKError",
    "UnsupportedT",
    "WaveletTopK",
    "build_suffix_array",
    "check_range",
    "load_index",
    "merge_ranges_topk",
    "new_color_array",
    "open_stream",
    "oracle_distinct_count",
    "oracle_topk",
    "prank",
    "relevance_weights",
    "save_index",
    "two_list_union",
]
