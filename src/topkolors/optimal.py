"""The default top-K index: the sparse core on its fitted level set.

The paper reaches O(K) query time through a hierarchy of grids of
precomputed candidate lists.  With grid points spaced
floor(sqrt N) * max(ceil(log2 N)^2, 4096) apart, the first grid only fits
once N >= 2^24, so at every size this package can build the hierarchy is
empty and every query goes to its global fallback.  OptimalTopK is that
fallback alone: a _SparseCore over the per-position priority ranks,
answering in rank space and converting back to (color, priority) pairs at
the end.  Its levels come from fitted_levels: SparseTopK(2)'s up to a tree
height h = ceil(log2 sigma) of 10, else {0, ceil(h / 2), h}.
The core stores one key array and its node offsets per important level,
nothing else: 64.5 bits per element at sigma = 4096 and N = 2^18, whose
levels are {0, 6, 12}.  A range no wider than the core's scan width, the
descent's measured cost in scanned positions (about 27.3k positions at
k = 1 and 70.1k at k = 1024 there), is answered from its own ranks, one
slice of the uint16 ranks the ColorArray already holds, so that rule
stores nothing new: sorted below about 1.6k positions, and counted in a
sigma-long array read from the top above.  A wider range walks a frontier
of at most k nodes down the levels, and tests each leaf under it with one
searchsorted needle; the leaves found are the answer, in rank order.

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
