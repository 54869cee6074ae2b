"""The benchmark's tracer wraps library functions by name.

A renamed or removed target makes a traced benchmark run fail with
MissingTarget; this test catches that at test time instead.  The tracer
module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

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
