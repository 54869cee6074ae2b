"""tools/scan_sweep.py reads library privates: the core's _arr,
_mask_from, _summary, _scan and _descend, and sparse's fitted constants.

A rename or a changed rule there breaks the tool; this test catches that
at test time.  The tool is loaded from its file, unchanged, and run on
one small core: check_library checks that the library's rules are the
ones the tool fits, time_cell that every path gives the same answer, and
losses prices the library's rule on the timed cell.  The level-set sweep
and the flat root's sweep run on one small shape each.
"""

import importlib.util
from pathlib import Path

import numpy as np

from topkolors import new_color_array
from topkolors.optimal import OptimalTopK
from topkolors import sparse
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


def test_root_sweep_runs_on_one_small_shape():
    sweep = load_sweep()
    n, sigma = 1 << 13, 2048
    saved = {name: getattr(sparse, name) for name in sweep.FITTED}
    # raises AssertionError if a flat core's root disagrees with the scan
    root = sweep.root_sweep(46, 2, shapes=[(n, sigma)], blocks=[256, 512],
                            groups=[8], batches=[16, 64])
    assert {name: getattr(sparse, name) for name in sweep.FITTED} == saved
    names = {f"b{b}-g8-c{c}" for b in (256, 512) for c in (16, 64)}
    assert set(root["candidates"]) == names
    assert root["library"] == "b512-g8-c64"
    assert root["pick"] in names
    [(name, shape)] = root["shapes"].items()
    assert name == "n13-s2048"
    assert shape["columns"][:3] == ["width", "k", "mid"]
    assert set(shape["columns"][3:]) == names
    assert set(shape["summary_bits"]) == {"b256-g8", "b512-g8"}
    for key in sweep.ROOT_INPUTS:
        assert len(shape[key]) == 3 * len(sweep.LEVEL_KS)
    # the flat set with its summary in the level sweep: its bits count it
    levels = sweep.level_sweep(47, 2, sigmas=[sigma], ns=[n])
    flat = levels["n13-s2048"]["sets"]["flat"]
    core = sparse._SparseCore(sweep.uniform_array(np.random.default_rng(0), n, sigma),
                              [0, 11])
    sweep.check_library(core)
    assert flat["levels"] == [0, 11] == fitted_levels(n, sigma)
    assert flat["bits"] == round(core.measured_bits() / n, 2)
    assert core._summary is not None


def test_cores_builds_every_core_the_sweep_times():
    # cores() reads each index's core attribute; nothing else runs it
    # short of a full sweep
    sweep = load_sweep()
    cores = dict(sweep.cores(1))
    assert list(cores) == ["optimal-4k", "sparse-f3-4k", "sigma-65537",
                           "low-sigma", "docs-main"]
    for core in cores.values():
        assert isinstance(core, sparse._SparseCore)
        sweep.check_library(core)
    arr = cores["docs-main"]._arr
    assert arr.sigma == 2001
    assert cores["docs-main"].levels == fitted_levels(arr.n, arr.sigma)
