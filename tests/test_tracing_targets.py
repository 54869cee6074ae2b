"""The benchmark's tracer wraps library functions by name.

A renamed or removed target makes a traced benchmark run fail with
MissingTarget; this test catches that at test time instead.  The tracer
module is loaded from its file, unchanged.  The instance attributes the
benchmark reads are checked after one build and one query per engine.
"""

import importlib.util
from pathlib import Path

from topkolors import new_color_array
from topkolors.chunked import ChunkedTopK
from topkolors.optimal import OptimalTopK
from topkolors.wavelet import WaveletTopK

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    tracing = load_tracing()
    owners = [(tracing._owner(path), attr)
              for path, attr, _ in tracing.SPANS + tracing.CALLS]
    originals = [vars(owner).get(attr) for owner, attr in owners if owner]
    tracer = tracing.Tracer()
    try:
        # either raises MissingTarget naming what the library lost
        tracer.install_spans()
        tracer.install_counters()
    finally:
        tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr in owners] == originals


def test_instance_attributes_the_benchmark_reads_exist():
    # the tracer's wrappers and perfbench/run.py read these after a build
    # and a query; install_counters patches methods, so it cannot see them
    arr = new_color_array([2, 0, 1, 0, 2, 1, 3, 2], {0: 4, 1: 2, 2: 7, 3: 5})
    reads = [(OptimalTopK, ["_global"]), (WaveletTopK, ["last_visited"]),
             (ChunkedTopK, ["_word_table", "last_path"])]
    for cls, names in reads:
        ix = cls(arr)
        ix.topk(1, arr.n, 2)
        for name in names:
            assert hasattr(ix, name), (cls.__name__, name)
    for core in (OptimalTopK(arr)._global, ChunkedTopK(arr).core):
        core.topk_ranks(1, arr.n, 2)
        assert hasattr(core, "last_visited")
