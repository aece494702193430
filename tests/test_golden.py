"""``reproduce all --seed 42`` against the golden file, on any machine.

``tests/data/golden_seed42.json`` and the script beside it that writes it
pin what the six bundled scenarios compute.  The Rossler artifacts must
match byte for byte.  The linear scenarios go through BLAS, whose kernel
choice moves their last bits (about 5e-12 of the state scale between
OpenBLAS kernels), so their numbers are compared within tolerances about
500 times wider than that: a rounding-level change passes, a change that
moves a trajectory or a design does not.  A change meant to move an
output regenerates the file.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os

import numpy as np

_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
_spec = importlib.util.spec_from_file_location(
    "make_golden_seed42", os.path.join(_DATA, "make_golden_seed42.py"))
golden_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_script)

RELATIVE = 1e-8
# sync_time and component_settle_times are times on the grid: a change
# moves them by dt = 1e-3 at least
GRID_TIME = 1e-9
GRID_TIME_KEYS = {"sync_time", "component_settle_times"}
# rounding-level measures of exact identities (0 or about 1e-15 today);
# their verdicts hold up to 1e-9
RESIDUAL = 1e-12
RESIDUAL_KEYS = {"realization_residual", "gain_error", "recovery_residual",
                 "residual"}


def _leaves(obj, path=()):
    """(path, value) of every leaf of a JSON document, lists indexed."""
    if isinstance(obj, dict):
        yield path, sorted(obj)
        for key in sorted(obj):
            yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        yield path, len(obj)
        for i, item in enumerate(obj):
            yield from _leaves(item, path + (i,))
    else:
        yield path, obj


def _scale(obj) -> float:
    floats = [abs(v) for _, v in _leaves(obj) if type(v) is float]
    return max(floats, default=0.0)


def _assert_matches(actual, golden, tolerance, where: str) -> None:
    """Same keys, lengths and non-float leaves; every float leaf within
    ``tolerance(path, value)`` of the golden one."""
    got, want = list(_leaves(actual)), list(_leaves(golden))
    assert [p for p, _ in got] == [p for p, _ in want], where
    for (path, a), (_, g) in zip(got, want):
        if type(g) is float:
            assert type(a) is float and math.isfinite(a) == math.isfinite(g)
            assert abs(a - g) <= tolerance(path, g), (where, path, a, g)
        else:
            assert a == g and type(a) is type(g), (where, path, a, g)


def _summary_tolerance(path, value) -> float:
    if GRID_TIME_KEYS & set(path):
        return GRID_TIME
    if RESIDUAL_KEYS & set(path):
        return RESIDUAL
    return RELATIVE * abs(value)


def _design_tolerances(report: dict):
    """Each top-level entry of a design report relative to its own
    largest |x|."""
    scales = {key: _scale(value) for key, value in report.items()}

    def tolerance(path, value):
        if path[0] in RESIDUAL_KEYS:
            return RESIDUAL
        return RELATIVE * scales[path[0]]
    return tolerance


def _assert_trajectory_matches(actual: dict, golden: dict, where: str):
    assert {k: actual[k] for k in ("n_times", "diverged", "rows")} == {
        k: golden[k] for k in ("n_times", "diverged", "rows")}, where
    states, want = np.array(actual["states"]), np.array(golden["states"])
    # each sample relative to the largest |x| at its time
    row_scale = np.abs(want).max(axis=1, keepdims=True)
    assert (np.abs(states - want) <= RELATIVE * row_scale).all(), where
    peaks, want = np.array(actual["max_abs"]), np.array(golden["max_abs"])
    assert (np.abs(peaks - want) <= RELATIVE * want.max()).all(), where


def test_reproduce_all_seed42_matches_the_golden_file(tmp_path):
    with open(golden_script.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    actual = golden_script.collect(str(tmp_path))

    assert actual["seed"] == golden["seed"]
    assert actual["rossler_sha256"] == golden["rossler_sha256"]
    assert sorted(actual["linear"]) == sorted(golden["linear"])
    for name, want in golden["linear"].items():
        got = actual["linear"][name]
        assert got["summary"]["verdict"] is True
        _assert_matches(got["summary"], want["summary"], _summary_tolerance,
                        f"{name}/summary.json")
        _assert_matches(got["design_report"], want["design_report"],
                        _design_tolerances(want["design_report"]),
                        f"{name}/design_report.json")
        assert sorted(got["trajectories"]) == sorted(want["trajectories"])
        for variant, samples in want["trajectories"].items():
            _assert_trajectory_matches(got["trajectories"][variant], samples,
                                       f"{name}/{variant}")
