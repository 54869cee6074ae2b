import numpy as np
import pytest

from topkolors.sparse import _SparseCore


def _held_arrays(obj, seen, out):
    """Every ndarray reachable from obj through topkolors objects,
    containers and slots, keyed by identity."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        out[id(obj)] = obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _held_arrays(item, seen, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _held_arrays(item, seen, out)
    elif type(obj).__module__.startswith("topkolors."):
        names = list(getattr(obj, "__dict__", ()))
        for cls in type(obj).__mro__:
            names += getattr(cls, "__slots__", ())
        for name in names:
            if hasattr(obj, name):
                _held_arrays(getattr(obj, name), seen, out)


@pytest.fixture
def held_bits():
    """held_bits(obj, excluded): bits of every array obj holds, each counted
    once, leaving out what is reachable only through `excluded`."""
    def bits(obj, excluded):
        out = {}
        _held_arrays(obj, {id(excluded)}, out)
        return sum(8 * a.nbytes for a in out.values())
    return bits


@pytest.fixture
def core_paths(monkeypatch):
    """Every _SparseCore._scan and _descend call as (path, core, a, b), in
    call order: the path each query took, read without core state.  The
    test clears the list between queries."""
    calls = []
    for name in ("_scan", "_descend"):
        def spy(core, a, b, *args, name=name, run=getattr(_SparseCore, name)):
            calls.append((name, core, a, b))
            return run(core, a, b, *args)
        monkeypatch.setattr(_SparseCore, name, spy)
    return calls
