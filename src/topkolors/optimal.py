"""The default top-K index: the sparse core on its fitted level set.

The paper reaches O(K) query time through a hierarchy of grids of
precomputed candidate lists.  With grid points spaced
floor(sqrt N) * max(ceil(log2 N)^2, 4096) apart, the first grid only fits
once N >= 2^24, so at every size this package can build the hierarchy is
empty and every query goes to its global fallback.  OptimalTopK is that
fallback alone: a _SparseCore over the per-position priority ranks,
answering in rank space and converting back to (color, priority) pairs at
the end.  Its levels come from fitted_levels: SparseTopK(2)'s up to a tree
height h = ceil(log2 sigma) of 10; past it the flat {0, h} while its keys
fit int32, else {0, ceil(h / 2), h}.
The core stores one key array and its node offsets per important level,
and a flat core past h = 10 a rank-group presence summary: 33.5 bits per
element at sigma = 4096 and N = 2^18, whose levels are {0, 12}.  A range
no wider than the core's scan width, the descent's measured cost in
scanned positions (7765 positions at k = 1 and 53.8k at k = 1024 there),
is answered from its own ranks, one slice of the uint16 ranks the
ColorArray already holds, so that rule stores nothing new: sorted below
about 1.6k positions, and counted in a sigma-long array read from the top
above.  A wider range is descended from the root every level set shares:
it maps the root's top children in batches, on a flat core the leaves
themselves with one searchsorted needle each, and, once a batch comes back
less than half full, only the leaves of the rank groups the summary finds
in the range; the leaves found are the answer, in rank order.

The class adds nothing to SparseTopK but its level set.  It stays a class
of its own because snapshots record the kind by class, and the benchmark's
tracer hooks the __init__ and topk of this class body and reads the core as
_global.
"""

from __future__ import annotations

from .model import ColorArray
from .sparse import SparseTopK, fitted_levels


class OptimalTopK(SparseTopK):
    def __init__(self, arr: ColorArray):
        self._build(arr, fitted_levels(arr.n, arr.sigma))
        self._global = self.core

    topk = SparseTopK.topk
