"""tools/scan_sweep.py reads library privates: the core's _arr,
_mask_from, _scan and _descend, and sparse's four rule constants.

A rename or a changed rule there breaks the tool; this test catches that
at test time.  The tool is loaded from its file, unchanged, and run on
one small core: check_library checks that the library's rules are the
ones the tool fits, time_cell that every path gives the same answer, and
losses prices the library's rule on the timed cell.
"""

import importlib.util
from pathlib import Path

import numpy as np

from topkolors import new_color_array
from topkolors.optimal import OptimalTopK

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "scan_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("scan_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_tool_runs_on_a_small_core():
    sweep = load_sweep()
    rng = np.random.default_rng(44)
    # sigma 1024 gives three levels, k-dependent scan widths and a mask
    # threshold inside the array; at sigma 64 neither rule varies
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
