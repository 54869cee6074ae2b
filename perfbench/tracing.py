"""Spans and counters at the library's layer boundaries, for the traced run.

Wrappers replace library functions and methods only while a Tracer is
installed, and every original is put back by uninstall().  A target the
library no longer has fails the traced run with a MissingTarget naming it:
its metric would otherwise read 0, the best value a lower-is-better metric
can take, and show the rename as a gain.  Spans are kept in memory as
(name, start, end, parent, request) rows and written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# (owner, attribute, span name): timed boundaries of each layer.  An owner
# is a module of topkolors or "module.Class".
SPANS = [
    ("docs", "build_suffix_array", "build.suffix_array"),
    ("docs.DocumentIndex", "__init__", "build.top"),
    ("optimal.OptimalTopK", "__init__", "build.top"),
    ("wavelet.WaveletTopK", "__init__", "build.top"),
    ("chunked.ChunkedTopK", "__init__", "build.top"),
    ("sparse._SparseCore", "__init__", "build.index"),
    ("primitives.ColorReporter", "__init__", "build.index"),
    ("primitives.ColorCounter", "__init__", "build.index"),
    ("bits.RankSelectBits", "__init__", "build.index"),
    ("optimal.OptimalTopK", "topk", "engine.topk"),
    ("wavelet.WaveletTopK", "topk", "engine.topk"),
    ("chunked.ChunkedTopK", "topk", "engine.topk"),
    ("sparse._SparseCore", "topk_ranks", "sparse.topk_ranks"),
    ("model.ColorArray", "list_from_ranks", "model.list_from_ranks"),
    ("online.ColorStream", "_request", "online.request"),
    ("docs.DocumentIndex", "pattern_range", "docs.pattern_range"),
    ("docs.DocumentIndex", "ranked_list", "docs.ranked_list"),
    ("docs.DocumentIndex", "t_mine", "docs.t_mine"),
]

# (owner, attribute, counter): calls counted one by one
CALLS = [
    ("sparse._SparseCore", "map_child", "map_child"),
    ("primitives.ColorCounter", "count_range", "count"),
    ("primitives.ColorReporter", "positions", "report"),
    ("bits.RankSelectBits", "rank1", "rank1"),
    ("wavelet.WaveletTopK", "map_interval", "map_interval"),
]


class MissingTarget(Exception):
    """A function or method the tracer wraps is gone from the library."""


def _owner(path):
    """The topkolors module or class named by path, or None when gone."""
    module, _, cls = path.partition(".")
    try:
        obj = importlib.import_module(f"topkolors.{module}")
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._optimal: list = []
        self._missing: list[str] = []

    # -- installing ------------------------------------------------------
    def _patch(self, path, attr, make):
        owner = _owner(path)
        fn = owner.__dict__.get(attr) if owner is not None else None
        if fn is None:
            self._missing.append(f"{path}.{attr}")
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install_spans(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, lambda fn, name=name: self._spanned(name, fn))
        self._require()

    def install_counters(self):
        c = self.counts
        for owner, attr, key in CALLS:
            self._patch(owner, attr, lambda fn, key=key: _counted(c, key, fn))

        def walk_below(fn):
            def wrapper(tree, *args, **kw):
                out = fn(tree, *args, **kw)
                c["segtree_nodes"] += out[1]
                return out
            return wrapper

        def core_topk(fn):
            def wrapper(core, *args):
                out = fn(core, *args)
                c["children_probed"] += core.last_visited
                if self._optimal and core is self._optimal[-1]:
                    c["global_calls"] += 1
                return out
            return wrapper

        def optimal_topk(fn):
            def wrapper(index, *args):
                c["optimal_topk"] += 1
                self._optimal.append(index._global)
                try:
                    return fn(index, *args)
                finally:
                    self._optimal.pop()
            return wrapper

        def wavelet_topk(fn):
            def wrapper(index, *args, **kw):
                out = fn(index, *args, **kw)
                c["levels_visited"] += index.last_visited
                return out
            return wrapper

        def chunked_ranks(fn):
            def wrapper(index, *args):
                out = fn(index, *args)
                c["chunked_queries"] += 1
                c["split"] += index.last_path == "split"
                return out
            return wrapper

        def word_topk(fn):
            def wrapper(table, *args):
                before = len(table)
                out = fn(table, *args)
                c["word_topk"] += 1
                c["word_hits"] += args[-1] and len(table) == before
                return out
            return wrapper

        def request(fn):
            def wrapper(stream, k):
                c["elements_requested"] += k
                c["stream_topk"] += 1
                return fn(stream, k)
            return wrapper

        def stream_next(fn):
            def wrapper(stream):
                out = fn(stream)
                c["streamed"] += 1
                return out
            return wrapper

        def t_mine(fn):
            def wrapper(index, *args):
                before = c["streamed"]
                out = fn(index, *args)
                c["tmine_streamed"] += c["streamed"] - before
                c["tmine_results"] += len(out)
                return out
            return wrapper

        self._patch("primitives.ArgminSegtree", "walk_below", walk_below)
        self._patch("sparse._SparseCore", "topk_ranks", core_topk)
        self._patch("optimal.OptimalTopK", "topk", optimal_topk)
        self._patch("wavelet.WaveletTopK", "topk", wavelet_topk)
        self._patch("chunked.ChunkedTopK", "topk_ranks", chunked_ranks)
        self._patch("chunked", "_word_topk", word_topk)
        self._patch("online.ColorStream", "_request", request)
        self._patch("online.ColorStream", "__next__", stream_next)
        self._patch("docs.DocumentIndex", "t_mine", t_mine)
        self._require()

    def _require(self):
        if self._missing:
            missing, self._missing = self._missing, []
            self.uninstall()
            raise MissingTarget("topkolors has no " + ", ".join(missing))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- spans -----------------------------------------------------------
    def _spanned(self, name, fn):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kw):
            row = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.request]
            open_.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                row[2] = perf_counter()
                open_.pop()
        return wrapper

    def op(self, name, request, fn, *args):
        """Run fn(*args) as the root span of one benchmark operation."""
        self.request = request
        return self._spanned(name, fn)(*args)

    def totals(self) -> Counter:
        """Inclusive seconds per span name, a span nested in one of the
        same name counted once."""
        out: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def self_times(self) -> Counter:
        """Seconds per span name minus the time of its child spans."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self, path, summary):
        with open(path, "w") as fh:
            json.dump({"summary": summary,
                       "columns": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


def _counted(counts, key, fn):
    def wrapper(*args, **kw):
        counts[key] += 1
        return fn(*args, **kw)
    return wrapper
