"""tools/scan_sweep.py reads library privates: the core's _arr,
_mask_from, _scan and _descend, and sparse's four rule constants.

A rename or a changed rule there breaks the tool; this test catches that
at test time.  The tool is loaded from its file, unchanged, and run on
one small core: check_library checks that the library's rules are the
ones the tool fits, time_cell that every path gives the same answer, and
losses prices the library's rule on the timed cell.  The level-set sweep
runs on one small shape.
"""

import importlib.util
from pathlib import Path

import numpy as np

from topkolors import new_color_array
from topkolors.optimal import OptimalTopK
from topkolors.sparse import fitted_levels, stride_levels

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "scan_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("scan_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_tool_runs_on_a_small_core():
    sweep = load_sweep()
    rng = np.random.default_rng(44)
    # sigma 1024 gives three levels, k-dependent scan widths and a count
    # threshold inside the array; at sigma 32 neither rule varies
    n, sigma = 4096, 1024
    colors = rng.integers(0, sigma, n)
    colors[:sigma] = np.arange(sigma)
    core = OptimalTopK(new_color_array(
        colors, dict(enumerate(rng.permutation(sigma).tolist())))).core
    sweep.check_library(core)
    mask_from = core._mask_from
    # raises AssertionError if the paths disagree on a range
    times = sweep.time_cell(core, rng, 256, 16, 2)
    assert set(times) == set(sweep.PATHS)
    assert core._mask_from == mask_from
    row = {"width": 256, "k": 16, **times}
    loss = sweep.losses(core, [row])
    best = min(times.values())
    assert loss["best_us"] == round(best, 1)
    # 256 positions are scanned at k = 16, by the sort kernel
    assert loss["current"]["lost_us"] == round(times["sort_us"] - best, 1)
    assert loss["current"]["cells_wrong"] == (times["sort_us"] > best)


def test_level_sweep_runs_on_one_small_shape():
    sweep = load_sweep()
    n, sigma = 4096, 1024
    # raises AssertionError if a level set's descent disagrees with the scan
    shapes = sweep.level_sweep(45, 2, sigmas=[sigma], ns=[n])
    [(name, shape)] = shapes.items()
    assert name == "n12-s1024"
    sets = shape["sets"]
    assert sets["stride"]["levels"] == stride_levels(n, sigma, 2)
    assert sets["flat"]["levels"] == [0, 10]
    assert sets[shape["fitted"]]["levels"] == fitted_levels(n, sigma)
    assert shape["pick"] in sets
    names = list(sets)
    assert shape["columns"] == ["width", "k", "scan_us", *names]
    # the skewed input's ranges lie in its first half
    widths = sweep.level_widths(n)
    for key, span in (("uniform", n), ("skewed", n // 2)):
        cells = [(w, k) for w in widths if w <= span for k in sweep.LEVEL_KS]
        assert [tuple(r[:2]) for r in shape[key]] == cells
        for name in names:
            assert sets[name][f"{key}_worst_ratio"] > 0
    for name in names:
        assert sets[name]["bits"] > 0
