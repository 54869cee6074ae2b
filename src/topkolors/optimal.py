"""The default top-K index: SparseTopK with f = 2 under the `optimal` kind.

The paper reaches O(K) query time through a hierarchy of grids of
precomputed candidate lists.  With grid points spaced
floor(sqrt N) * max(ceil(log2 N)^2, 4096) apart, the first grid only fits
once N >= 2^24, so at every size this package can build the hierarchy is
empty and every query goes to its global fallback.  OptimalTopK is that
fallback alone: a _SparseCore with f=2 over the per-position priority
ranks, answering in rank space and converting back to (color, priority)
pairs at the end.  The core stores one key array and its node offsets per
important level, nothing else: 64.6 bits per element at sigma = 4096 and
N = 2^18, whose levels are {0, 9, 12}.  A range no wider than the core's
scan width, the descent's measured cost in scanned positions (about 23.8k
positions at k = 1 and 69k at k = 1024 there), is answered from its own
ranks, one slice of the uint16 ranks the ColorArray already holds, so that
rule stores nothing new: sorted below about 1.7k positions, and counted in
a sigma-long array read from the top above.  A wider range walks a frontier
of at most k nodes down the levels, and tests each leaf under it with one
searchsorted needle; the leaves found are the answer, in rank order.

The class adds nothing to SparseTopK(f=2).  It stays a class of its own
because snapshots record the kind by class, and the benchmark's tracer
hooks the __init__ and topk of this class body and reads the core as
_global.
"""

from __future__ import annotations

from .model import ColorArray
from .sparse import SparseTopK


class OptimalTopK(SparseTopK):
    def __init__(self, arr: ColorArray):
        super().__init__(arr, 2)
        self._global = self.core

    topk = SparseTopK.topk
